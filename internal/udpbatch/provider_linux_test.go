//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"
)

// TestProviderProbe reports which providers this kernel supports. CI runs
// it verbosely as the capability-probe step, so every run records exactly
// which providers the other tests exercised — a skipped mmsg test is
// visible, not silent — and it pins the ladder: exactly mmsg, loop, with
// "auto" selecting mmsg.
func TestProviderProbe(t *testing.T) {
	for _, r := range ProbeProviders() {
		if r.OK {
			t.Logf("provider %-8s available", r.Name)
		} else {
			t.Logf("provider %-8s UNAVAILABLE on this kernel: %v", r.Name, r.Err)
		}
	}
	// The portable rung must always hold; everything above it may
	// legitimately be missing.
	res := ProbeProviders()
	var names []string
	for _, r := range res {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, " "); got != "mmsg loop" {
		t.Fatalf("probed rungs %q, want exactly \"mmsg loop\"", got)
	}
	if last := res[len(res)-1]; !last.OK {
		t.Fatalf("loop rung must always be available, got %+v", last)
	}
	// "auto" is the measured order, not the newest facility first: mmsg
	// here, whatever else the kernel offers.
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer c.Close()
	bc, err := NewUDPConnProvider(c, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if got := ProviderName(bc); got != "mmsg" {
		t.Fatalf("auto selected %q, want mmsg", got)
	}
}

// dialProviderPair opens a server batch conn on the named provider plus a
// plain client socket aimed at it over loopback, skipping loudly when the
// kernel lacks the facility.
func dialProviderPair(t *testing.T, provider string) (Conn, *net.UDPConn) {
	t.Helper()
	srv, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	bc, err := NewUDPConnProvider(srv, provider)
	if err != nil {
		srv.Close()
		t.Skipf("SKIP: provider %q unavailable on this kernel: %v", provider, err)
	}
	cl, err := net.DialUDP("udp4", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if c, ok := bc.(interface{ Close() error }); ok {
			c.Close()
		}
		cl.Close()
	})
	return bc, cl
}

// TestProviderOversizedRead is the provider half of the slot-sizing fix
// (sessiond's TestServeBatchSlotSizing is the serve-loop half): every rung
// reads into its slot's whole capacity, so an oversized-but-legitimate
// datagram (bigger than the MTU-derived slot size, within a slot sized up
// to the 64 KiB UDP payload ceiling) arrives whole. A truncated one would fail the AEAD, and
// every retransmission of it would fail the same way.
func TestProviderOversizedRead(t *testing.T) {
	for _, provider := range []string{"mmsg", "loop"} {
		t.Run(provider, func(t *testing.T) {
			bc, cl := dialProviderPair(t, provider)
			payload := bytes.Repeat([]byte{0x5a}, 5000) // > DefaultBufSize, < loopback MTU
			if _, err := cl.Write(payload); err != nil {
				t.Fatal(err)
			}
			msgs := []Message{{Buf: make([]byte, 0, 65535)}}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatal("datagram never arrived")
				}
				n, err := bc.ReadBatch(msgs)
				if err != nil {
					t.Fatal(err)
				}
				if n == 1 {
					break
				}
			}
			if !bytes.Equal(msgs[0].Buf, payload) {
				t.Fatalf("oversized datagram truncated: got %d bytes, want %d",
					len(msgs[0].Buf), len(payload))
			}
		})
	}
}
