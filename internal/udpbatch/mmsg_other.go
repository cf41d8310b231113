//go:build !linux || !(amd64 || arm64)

package udpbatch

import (
	"errors"
	"net"
)

// errNoPlatformBatch makes NewUDPConn fall back to the portable loop
// adapter on platforms without a vectorized implementation.
var errNoPlatformBatch = errors.New("udpbatch: no vectorized socket I/O on this platform")

func newPlatformUDP(*net.UDPConn) (Conn, error) { return nil, errNoPlatformBatch }
