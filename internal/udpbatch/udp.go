package udpbatch

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/netem"
)

// The rest of the stack tracks peers as netem.Addr. For IPv4 sources that
// is a 32-bit host plus a 16-bit port; native IPv6 sources carry their
// upper 12 address bytes in Addr.Pfx with the V6 flag set. Both mappings
// are bijective, so unlike the historical adapter in cmd/mosh-server no
// side table is needed: an address decompresses straight back into a
// socket address, and because the pre-auth mapping is injective, a
// spoofed datagram cannot redirect another peer's replies. Scoped
// (link-local zoned) IPv6 sources are refused at the read — a zone index
// does not fit a comparable value without aliasing.

// CompressUDPAddr maps a UDP address into netem.Addr form. IPv4 and
// IPv4-mapped IPv6 addresses take the compact form; native IPv6 sets V6
// and fills Pfx. ok is false only for malformed or zoned addresses.
func CompressUDPAddr(a *net.UDPAddr) (netem.Addr, bool) {
	if ip4 := a.IP.To4(); ip4 != nil {
		host := uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3])
		return netem.Addr{Host: host, Port: uint16(a.Port)}, true
	}
	ip := a.IP.To16()
	if ip == nil || a.Zone != "" {
		return netem.Addr{}, false
	}
	addr := netem.Addr{Port: uint16(a.Port), V6: true}
	copy(addr.Pfx[:], ip[:12])
	addr.Host = uint32(ip[12])<<24 | uint32(ip[13])<<16 | uint32(ip[14])<<8 | uint32(ip[15])
	return addr, true
}

// DecompressUDPAddr is the inverse of CompressUDPAddr.
func DecompressUDPAddr(a netem.Addr) *net.UDPAddr {
	if a.V6 {
		ip := make(net.IP, 16)
		copy(ip, a.Pfx[:])
		ip[12], ip[13] = byte(a.Host>>24), byte(a.Host>>16)
		ip[14], ip[15] = byte(a.Host>>8), byte(a.Host)
		return &net.UDPAddr{IP: ip, Port: int(a.Port)}
	}
	return &net.UDPAddr{
		IP:   net.IPv4(byte(a.Host>>24), byte(a.Host>>16), byte(a.Host>>8), byte(a.Host)),
		Port: int(a.Port),
	}
}

// udpSingle is the portable single-datagram adapter over *net.UDPConn.
type udpSingle struct {
	c *net.UDPConn
}

// ReadFrom returns every socket error to its caller: the serve loop is
// what tells a transient one (IsTransientIOError: counted, backed off,
// retried) from one that ends the read loop.
func (u *udpSingle) ReadFrom(buf []byte) (int, netem.Addr, error) {
	for {
		n, src, err := u.c.ReadFromUDP(buf)
		if err != nil {
			return 0, netem.Addr{}, err
		}
		a, ok := CompressUDPAddr(src)
		if !ok {
			continue // malformed or zoned source: unsupported, see package comment
		}
		return n, a, nil
	}
}

func (u *udpSingle) WriteTo(wire []byte, dst netem.Addr) error {
	_, err := u.c.WriteToUDP(wire, DecompressUDPAddr(dst))
	return err
}

func (u *udpSingle) Close() error { return u.c.Close() }

// socketReadBuffer is the receive buffer a served socket asks for. The
// system default holds a couple of hundred small datagrams — one session's
// worth, which is what it was sized for. Here every session shares the
// socket, its buffer is the only queue between the network and them, and
// the reader is away for a whole sweep at a time (it handles what it read
// before it reads again): at 400 busy sessions the default drops 1–2 % of
// arrivals on the floor (RcvbufErrors), each costing its session a
// retransmission timeout.
const socketReadBuffer = 4 << 20

// NewUDPConnProvider selects a provider by name: "mmsg", "loop", or "auto"
// (also ""). An explicit name fails rather than falling back, so an
// operator pinning a provider learns it is unavailable instead of silently
// running a different one.
//
// "auto" walks the rungs in the order the repository's benchmark measured
// them, best first, and takes the first the platform supports: mmsg, then
// loop.
func NewUDPConnProvider(c *net.UDPConn, provider string) (Conn, error) {
	// Best effort: the kernel clamps the request to net.core.rmem_max.
	_ = c.SetReadBuffer(socketReadBuffer)
	switch provider {
	case "", "auto":
		if bc, err := newPlatformUDP(c); err == nil {
			return bc, nil
		}
		return NewUDPLoopConn(c), nil
	case "mmsg":
		return newPlatformUDP(c)
	case "loop":
		return NewUDPLoopConn(c), nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownProvider, provider)
}

// ErrUnknownProvider is NewUDPConnProvider's error for a name that is no
// provider, as against one this platform cannot run.
var ErrUnknownProvider = errors.New("udpbatch: unknown provider")

// NewUDPLoopConn wraps a UDP socket in the portable one-datagram-per-
// syscall adapter regardless of platform — the explicit fallback mode.
func NewUDPLoopConn(c *net.UDPConn) Conn { return NewLoopConn(&udpSingle{c: c}) }

// ProbeResult is one provider as probed on this kernel.
type ProbeResult struct {
	Name string
	OK   bool
	Err  error // why the rung is unavailable (nil when OK)
}

// ProbeProviders constructs each provider against scratch loopback sockets
// and reports which this kernel supports: auto's choice first, then the
// fallback. The CI capability-probe step reads it, so every run records
// which providers the by-name tests exercised and which they skipped.
func ProbeProviders() []ProbeResult {
	probe := func(name string) ProbeResult {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return ProbeResult{Name: name, Err: err}
		}
		bc, err := NewUDPConnProvider(c, name)
		if err != nil {
			c.Close()
			return ProbeResult{Name: name, Err: err}
		}
		if cl, ok := bc.(interface{ Close() error }); ok {
			cl.Close()
		} else {
			c.Close()
		}
		return ProbeResult{Name: name, OK: true}
	}
	return []ProbeResult{
		probe("mmsg"),
		probe("loop"),
	}
}
