package faultconn

import (
	"bytes"
	"errors"
	"syscall"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/netem"
	"repro/internal/udpbatch"
)

// fakeConn is a scriptable inner connection: queued inbound datagrams,
// recorded outbound ones.
type fakeConn struct {
	in    [][]byte
	addr  netem.Addr
	wrote [][]byte
}

func (f *fakeConn) BatchCap() int { return 8 }

func (f *fakeConn) ReadBatch(msgs []udpbatch.Message) (int, error) {
	n := 0
	for n < len(msgs) && n < len(f.in) {
		buf := msgs[n].Buf[:0]
		buf = append(buf, f.in[n]...)
		msgs[n].Buf = buf
		msgs[n].Addr = f.addr
		n++
	}
	f.in = f.in[n:]
	return n, nil
}

func (f *fakeConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	for i := range msgs {
		f.wrote = append(f.wrote, append([]byte(nil), msgs[i].Buf...))
	}
	return len(msgs), nil
}

func newMsgs(n int) []udpbatch.Message {
	msgs := make([]udpbatch.Message, n)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 0, 64)
	}
	return msgs
}

func TestConnScriptedErrors(t *testing.T) {
	inner := &fakeConn{in: [][]byte{[]byte("hello")}}
	c := NewConn(inner, 1)
	c.ScriptReadError(faultinject.ErrEINTR, faultinject.ErrENOBUFS)
	for _, want := range []error{faultinject.ErrEINTR, faultinject.ErrENOBUFS} {
		if _, err := c.ReadBatch(newMsgs(4)); !errors.Is(err, want) {
			t.Fatalf("scripted read error = %v, want %v", err, want)
		}
	}
	msgs := newMsgs(4)
	n, err := c.ReadBatch(msgs)
	if err != nil || n != 1 || string(msgs[0].Buf) != "hello" {
		t.Fatalf("post-script read = %d, %v, %q", n, err, msgs[0].Buf)
	}
	c.ScriptWriteError(faultinject.ErrEACCES)
	if _, err := c.WriteBatch(newMsgs(1)); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("scripted write error = %v, want EACCES", err)
	}
	if got := c.Stats().ReadErrs.Load(); got != 2 {
		t.Fatalf("ReadErrs = %d, want 2", got)
	}
	if got := c.Stats().WriteErrs.Load(); got != 1 {
		t.Fatalf("WriteErrs = %d, want 1", got)
	}
}

func TestConnMangling(t *testing.T) {
	payload := []byte("0123456789abcdef")
	inner := &fakeConn{}
	c := NewConn(inner, 99)
	c.SetFaults(ConnFaults{CorruptProb: 0.5, TruncProb: 0.3, DupProb: 0.3})
	var corrupted, truncated, dups, clean int
	for round := 0; round < 200; round++ {
		inner.in = [][]byte{append([]byte(nil), payload...)}
		msgs := newMsgs(4)
		n, err := c.ReadBatch(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if n == 2 {
			dups++
			if !bytes.Equal(msgs[0].Buf, msgs[1].Buf) {
				t.Fatal("duplicate differs from original")
			}
		} else if n != 1 {
			t.Fatalf("read %d datagrams", n)
		}
		switch {
		case len(msgs[0].Buf) < len(payload):
			truncated++
		case !bytes.Equal(msgs[0].Buf, payload):
			corrupted++
		default:
			clean++
		}
	}
	if corrupted == 0 || truncated == 0 || dups == 0 || clean == 0 {
		t.Fatalf("schedule did not mix: corrupt=%d trunc=%d dup=%d clean=%d",
			corrupted, truncated, dups, clean)
	}
	st := c.Stats()
	if st.Corrupted.Load() == 0 || st.Truncated.Load() == 0 || st.Duplicated.Load() == 0 {
		t.Fatalf("stats did not count: %d/%d/%d",
			st.Corrupted.Load(), st.Truncated.Load(), st.Duplicated.Load())
	}
}

func TestConnWriteFaults(t *testing.T) {
	inner := &fakeConn{}
	c := NewConn(inner, 7)
	c.SetFaults(ConnFaults{WriteErrProb: 1})
	msgs := newMsgs(4)
	for i := range msgs {
		msgs[i].Buf = append(msgs[i].Buf, byte(i))
	}
	n, err := c.WriteBatch(msgs)
	if err == nil {
		t.Fatal("write fault did not fire")
	}
	if n != len(inner.wrote) {
		t.Fatalf("reported %d transmitted, inner saw %d", n, len(inner.wrote))
	}
	// Partial writes: a strict prefix is consumed with a nil error.
	inner.wrote = nil
	c.SetFaults(ConnFaults{PartialWriteProb: 1})
	n, err = c.WriteBatch(msgs)
	if err != nil || n < 1 || n >= len(msgs) {
		t.Fatalf("partial write = %d, %v; want strict prefix", n, err)
	}
	if c.Stats().PartialWrites.Load() == 0 {
		t.Fatal("partial write not counted")
	}
}
