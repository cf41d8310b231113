package udpbatch

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestCompressUDPAddrRoundTrip pins the bijective netem.Addr mapping for
// IPv4, IPv4-mapped and native IPv6 addresses, and the refusal of zoned
// (scoped) sources.
func TestCompressUDPAddrRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   *net.UDPAddr
		ok   bool
		v6   bool
		out  string // expected decompressed IP (String form); "" = same as in
	}{
		{"v4", &net.UDPAddr{IP: net.IPv4(203, 0, 113, 9), Port: 60001}, true, false, ""},
		{"v4-mapped", &net.UDPAddr{IP: net.ParseIP("::ffff:192.0.2.7"), Port: 443}, true, false, "192.0.2.7"},
		{"v6", &net.UDPAddr{IP: net.ParseIP("2001:db8::1234:5678"), Port: 60002}, true, true, ""},
		{"v6 loopback", &net.UDPAddr{IP: net.ParseIP("::1"), Port: 7}, true, true, ""},
		{"zoned", &net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 1, Zone: "eth0"}, false, false, ""},
		{"malformed", &net.UDPAddr{IP: net.IP{1, 2, 3}, Port: 1}, false, false, ""},
	}
	for _, tc := range cases {
		a, ok := CompressUDPAddr(tc.in)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if a.V6 != tc.v6 {
			t.Errorf("%s: V6 = %v, want %v", tc.name, a.V6, tc.v6)
		}
		back := DecompressUDPAddr(a)
		wantIP := tc.out
		if wantIP == "" {
			wantIP = tc.in.IP.String()
		}
		if back.IP.String() != wantIP || back.Port != tc.in.Port {
			t.Errorf("%s: round trip = %v, want %s:%d", tc.name, back, wantIP, tc.in.Port)
		}
	}
}

// TestAddrDistinct guards the injectivity the pre-auth peer map relies
// on: a native v6 address whose low 4 bytes collide with a v4 host must
// still compare unequal, and distinct v6 prefixes must not alias.
func TestAddrDistinct(t *testing.T) {
	v4, _ := CompressUDPAddr(&net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 99})
	v6, _ := CompressUDPAddr(&net.UDPAddr{IP: net.ParseIP("2001:db8::a00:1"), Port: 99})
	if v4 == v6 {
		t.Fatal("v4 and v6 addresses with equal low bytes must not alias")
	}
	p1, _ := CompressUDPAddr(&net.UDPAddr{IP: net.ParseIP("2001:db8:1::1"), Port: 99})
	p2, _ := CompressUDPAddr(&net.UDPAddr{IP: net.ParseIP("2001:db8:2::1"), Port: 99})
	if p1 == p2 {
		t.Fatal("distinct v6 prefixes must not alias")
	}
}

// TestUDPLoopReadReturnsSocketErrors pins the loop rung's read contract on
// a real socket: an error from the kernel goes back to the caller, who
// classifies it (the serve loop counts and backs off on transient ones and
// stops on the rest). Swallowing them in the adapter hid the transient
// ones from that accounting and spun forever on a persistent one.
func TestUDPLoopReadReturnsSocketErrors(t *testing.T) {
	// A port nobody listens on: bind one, note it, let it go.
	probe, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	dead := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()
	c, err := net.DialUDP("udp4", nil, dead)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewUDPLoopConn(c)
	read := func() error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := bc.ReadBatch([]Message{{Buf: make([]byte, 0, DefaultBufSize)}})
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("ReadBatch did not return: the adapter is retrying the error itself")
			return nil
		}
	}

	// Transient: the datagram provokes an ICMP port-unreachable, which a
	// connected socket reports as ECONNREFUSED on its next read.
	if _, err := c.Write([]byte("anyone?")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	switch err := read(); {
	case errors.Is(err, os.ErrDeadlineExceeded):
		t.Log("no ICMP error on this host's loopback; transient half not exercised")
	case !IsTransientIOError(err):
		t.Fatalf("ReadBatch = %v, want the socket's ECONNREFUSED", err)
	}

	// Persistent and not transient: every read fails the same way.
	c.SetReadDeadline(time.Now().Add(-time.Second))
	if err := read(); !errors.Is(err, os.ErrDeadlineExceeded) || IsTransientIOError(err) {
		t.Fatalf("ReadBatch = %v, want the deadline error, classified as fatal", err)
	}
}
