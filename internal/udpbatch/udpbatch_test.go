package udpbatch

import (
	"errors"
	"testing"

	"repro/internal/netem"
)

// chanConn is a deterministic in-memory SingleConn for adapter tests.
type chanConn struct {
	in   chan Message
	sent []Message
	// failAt makes WriteTo fail on the datagram with this index (-1 = never).
	failAt int
	writes int
}

func newChanConn(depth int) *chanConn {
	return &chanConn{in: make(chan Message, depth), failAt: -1}
}

func (c *chanConn) ReadFrom(buf []byte) (int, netem.Addr, error) {
	m, ok := <-c.in
	if !ok {
		return 0, netem.Addr{}, errors.New("closed")
	}
	n := copy(buf, m.Buf)
	return n, m.Addr, nil
}

func (c *chanConn) WriteTo(wire []byte, dst netem.Addr) error {
	if c.writes == c.failAt {
		c.writes++
		return errors.New("boom")
	}
	c.writes++
	c.sent = append(c.sent, Message{Buf: append([]byte(nil), wire...), Addr: dst})
	return nil
}

func TestLoopConnReadOneWriteAll(t *testing.T) {
	sc := newChanConn(4)
	sc.in <- Message{Buf: []byte("hello"), Addr: netem.Addr{Host: 7, Port: 9}}
	bc := NewLoopConn(sc)
	if got := bc.BatchCap(); got != 1 {
		t.Fatalf("loop BatchCap = %d, want 1", got)
	}
	msgs := make([]Message, 3)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 0, 64)
	}
	n, err := bc.ReadBatch(msgs)
	if err != nil || n != 1 {
		t.Fatalf("ReadBatch = %d, %v; want 1 datagram", n, err)
	}
	if string(msgs[0].Buf) != "hello" || msgs[0].Addr.Host != 7 {
		t.Fatalf("read %q from %v", msgs[0].Buf, msgs[0].Addr)
	}

	out := []Message{
		{Buf: []byte("a"), Addr: netem.Addr{Host: 1}},
		{Buf: []byte("b"), Addr: netem.Addr{Host: 2}},
	}
	if n, err := bc.WriteBatch(out); err != nil || n != 2 {
		t.Fatalf("WriteBatch = %d, %v; want 2", n, err)
	}
	if len(sc.sent) != 2 || string(sc.sent[1].Buf) != "b" {
		t.Fatalf("underlying conn saw %v", sc.sent)
	}
}

// TestLoopConnWriteError pins the error contract: WriteBatch returns the
// index of the failing datagram so the caller can drop it and continue
// with the remainder.
func TestLoopConnWriteError(t *testing.T) {
	sc := newChanConn(1)
	sc.failAt = 1
	bc := NewLoopConn(sc)
	out := []Message{
		{Buf: []byte("a"), Addr: netem.Addr{Host: 1}},
		{Buf: []byte("b"), Addr: netem.Addr{Host: 2}},
		{Buf: []byte("c"), Addr: netem.Addr{Host: 3}},
	}
	n, err := bc.WriteBatch(out)
	if err == nil || n != 1 {
		t.Fatalf("WriteBatch = %d, %v; want n=1 and an error naming msgs[1]", n, err)
	}
	// The documented recovery: drop msgs[n], retry the rest.
	if n2, err := bc.WriteBatch(out[n+1:]); err != nil || n2 != 1 {
		t.Fatalf("retry WriteBatch = %d, %v", n2, err)
	}
	if len(sc.sent) != 2 || string(sc.sent[0].Buf) != "a" || string(sc.sent[1].Buf) != "c" {
		t.Fatalf("delivered %v, want a then c with b dropped", sc.sent)
	}
}

func TestPoolRecycles(t *testing.T) {
	p := NewPool(128, 2)
	a := p.Get()
	if cap(a) < 128 || len(a) != 0 {
		t.Fatalf("Get: len=%d cap=%d", len(a), cap(a))
	}
	a = append(a, 1, 2, 3)
	p.Put(a)
	b := p.Get()
	if &b[:1][0] != &a[:1][0] {
		t.Fatal("pool did not recycle the buffer")
	}
	// Undersized buffers must not poison the ring.
	p.Put(make([]byte, 0, 16))
	if c := p.Get(); cap(c) < 128 {
		t.Fatalf("pool handed out an undersized buffer (cap %d)", cap(c))
	}
}

// TestPoolAllocFree proves the steady-state Get/Put cycle allocates
// nothing — the property the batched read path's 0 allocs/packet budget
// rests on.
func TestPoolAllocFree(t *testing.T) {
	p := NewPool(DefaultBufSize, 8)
	p.Put(p.Get())
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Get()
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("pool Get/Put = %.1f allocs, want 0", allocs)
	}
}
