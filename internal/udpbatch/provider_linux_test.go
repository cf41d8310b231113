//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
)

// TestProviderProbe reports which providers this kernel supports. CI runs
// it verbosely as the capability-probe step, so every run records exactly
// which providers the other tests exercised — a skipped GSO test is
// visible, not silent — and it pins the ladder: exactly mmsg, gso, loop,
// with "auto" selecting mmsg.
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
	if got := strings.Join(names, " "); got != "mmsg gso loop" {
		t.Fatalf("probed rungs %q, want exactly \"mmsg gso loop\"", got)
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
	if got := ProviderName(NewUDPConn(c)); got != "mmsg" {
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

// TestGSOWriteCoalescesRun pins the tentpole egress behavior: a same-peer
// run of equal-length datagrams (with a shorter trailer) leaves WriteBatch
// as ONE segmented super-datagram — one stack traversal — and arrives at
// the peer as the original individual datagrams, byte-identical.
func TestGSOWriteCoalescesRun(t *testing.T) {
	bc, cl := dialProviderPair(t, "gso")
	dst, _ := CompressUDPAddr(cl.LocalAddr().(*net.UDPAddr))
	const seg = 512
	payloads := make([][]byte, 7)
	msgs := make([]Message, len(payloads))
	for i := range payloads {
		n := seg
		if i == len(payloads)-1 {
			n = 100 // shorter trailer closes the run
		}
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
		msgs[i] = Message{Buf: payloads[i], Addr: dst}
	}
	n, err := bc.WriteBatch(msgs)
	if err != nil || n != len(msgs) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(msgs))
	}
	if tc, ok := bc.(TraversalCounter); ok {
		if _, out := tc.Traversals(); out != 1 {
			t.Fatalf("egress traversals = %d, want 1 (whole run in one super-datagram)", out)
		}
	}
	cl.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	for i := range payloads {
		rn, err := cl.Read(buf)
		if err != nil {
			t.Fatalf("client read %d: %v", i, err)
		}
		if !bytes.Equal(buf[:rn], payloads[i]) {
			t.Fatalf("datagram %d: got %d bytes (%q…), want %d bytes of %q",
				i, rn, buf[:min(rn, 8)], len(payloads[i]), payloads[i][0])
		}
	}
}

// TestGSOReadBatch drains a backlog through the GRO-enabled read path;
// whether or not the kernel coalesced on loopback, the split must deliver
// the original datagrams in order with correct sources.
func TestGSOReadBatch(t *testing.T) {
	bc, cl := dialProviderPair(t, "gso")
	const count = 6
	for i := 0; i < count; i++ {
		if _, err := cl.Write([]byte(fmt.Sprintf("pkt-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wantSrc, _ := CompressUDPAddr(cl.LocalAddr().(*net.UDPAddr))
	msgs := make([]Message, DefaultBatch)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 0, DefaultBufSize)
	}
	deadline := time.Now().Add(5 * time.Second)
	got := 0
	for got < count {
		if time.Now().After(deadline) {
			t.Fatalf("read %d/%d datagrams before timeout", got, count)
		}
		n, err := bc.ReadBatch(msgs[: count-got : count-got])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if want := fmt.Sprintf("pkt-%d", got+i); string(msgs[i].Buf) != want {
				t.Fatalf("datagram %d = %q, want %q", got+i, msgs[i].Buf, want)
			}
			if msgs[i].Addr != wantSrc {
				t.Fatalf("datagram %d src = %v, want %v", got+i, msgs[i].Addr, wantSrc)
			}
			msgs[i].Buf = msgs[i].Buf[:0]
		}
		got += n
	}
}

// TestGROSplitBoundaries is the satellite's pure unit test: a synthetic
// coalesced super-datagram must split back into the exact original
// datagram boundaries — full segments plus a shorter final one — across
// multiple drain calls with carry-over.
func TestGROSplitBoundaries(t *testing.T) {
	src := netem.Addr{Host: 0x7F000001, Port: 4242}
	// 3 full 7-byte segments + a 4-byte trailer, as UDP_GRO delivers them.
	super := []byte("AAAAAAABBBBBBBCCCCCCCDDDD")
	want := [][]byte{
		[]byte("AAAAAAA"), []byte("BBBBBBB"), []byte("CCCCCCC"), []byte("DDDD"),
	}
	s := newGROSplitter(4)
	s.push(super, 7, src)
	// Drain through 2-slot windows to force carry-over between calls.
	slots := make([]Message, 2)
	for i := range slots {
		slots[i].Buf = make([]byte, 0, 32)
	}
	var got [][]byte
	for s.pending() {
		n := s.drain(slots)
		if n == 0 {
			t.Fatal("drain made no progress with pending segments")
		}
		for i := 0; i < n; i++ {
			if slots[i].Addr != src {
				t.Fatalf("segment src = %v, want %v", slots[i].Addr, src)
			}
			got = append(got, append([]byte(nil), slots[i].Buf...))
			slots[i].Buf = slots[i].Buf[:0]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("split into %d datagrams, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d = %q, want %q", i, got[i], want[i])
		}
	}

	// A non-coalesced read (seg=0) passes through whole.
	s.push([]byte("single"), 0, src)
	if n := s.drain(slots); n != 1 || string(slots[0].Buf) != "single" {
		t.Fatalf("non-coalesced drain = %d, %q", n, slots[0].Buf)
	}
	// A zero-length datagram is legal UDP and must deliver one empty message.
	slots[0].Buf = slots[0].Buf[:0]
	s.push(nil, 0, src)
	if n := s.drain(slots); n != 1 || len(slots[0].Buf) != 0 || slots[0].Addr != src {
		t.Fatalf("zero-length drain = %d, len %d", n, len(slots[0].Buf))
	}
}

// TestProviderOversizedRead is the regression test for the slot-sizing
// fix: an oversized-but-legitimate datagram (bigger than the MTU-derived
// slot size but within the provider's declared ReadSlotSize) must arrive
// whole. Before per-provider slot sizing it would truncate, fail the
// AEAD, and every retransmission of it would fail the same way.
func TestProviderOversizedRead(t *testing.T) {
	for _, provider := range []string{"gso"} {
		t.Run(provider, func(t *testing.T) {
			bc, cl := dialProviderPair(t, provider)
			want := ReadSlotSize(bc, DefaultBufSize)
			if want <= DefaultBufSize {
				t.Fatalf("provider %s must declare a super slot size, got %d", provider, want)
			}
			payload := bytes.Repeat([]byte{0x5a}, 5000) // > DefaultBufSize, < loopback MTU
			if _, err := cl.Write(payload); err != nil {
				t.Fatal(err)
			}
			msgs := []Message{{Buf: make([]byte, 0, want)}}
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

// Alloc guards for the new hot paths (named in CI's alloc gate).

// TestGSOWriteBatchAllocFree pins the coalescing egress path at zero heap
// allocations per WriteBatch call.
func TestGSOWriteBatchAllocFree(t *testing.T) {
	bc, cl := dialProviderPair(t, "gso")
	dst, _ := CompressUDPAddr(cl.LocalAddr().(*net.UDPAddr))
	payload := bytes.Repeat([]byte{'w'}, 256)
	msgs := []Message{
		{Buf: payload, Addr: dst},
		{Buf: payload, Addr: dst},
		{Buf: payload, Addr: dst},
	}
	drain := make([]byte, 2048)
	allocs := testing.AllocsPerRun(100, func() {
		sent := 0
		for sent < len(msgs) {
			n, err := bc.WriteBatch(msgs[sent:])
			if err != nil {
				t.Fatal(err)
			}
			sent += n
		}
	})
	cl.SetReadDeadline(time.Now().Add(time.Second))
	for {
		if _, err := cl.Read(drain); err != nil {
			break
		}
	}
	if allocs > 0 {
		t.Fatalf("GSO WriteBatch steady state = %.1f allocs/call, want 0", allocs)
	}
}

// TestGSOReadBatchAllocFree pins the GRO split ingress path at zero heap
// allocations per ReadBatch call.
func TestGSOReadBatchAllocFree(t *testing.T) {
	bc, cl := dialProviderPair(t, "gso")
	msgs := make([]Message, 4)
	pool := NewPool(DefaultBufSize, 16)
	for i := range msgs {
		msgs[i].Buf = pool.Get()
	}
	payload := []byte("x")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cl.Write(payload); err != nil {
			t.Fatal(err)
		}
		for {
			n, err := bc.ReadBatch(msgs)
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				for i := 0; i < n; i++ {
					pool.Put(msgs[i].Buf)
					msgs[i].Buf = pool.Get()
				}
				break
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("GSO ReadBatch steady state = %.1f allocs/call, want 0", allocs)
	}
}
