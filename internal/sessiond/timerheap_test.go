package sessiond

import (
	"testing"
	"time"
)

// TestSameInstantDeadlinesPopInIDOrder: sessions due at the same instant
// are ticked in session-ID order, whatever order they were armed in, so a
// sweep's egress order does not depend on the heap's insertion history.
func TestSameInstantDeadlinesPopInIDOrder(t *testing.T) {
	h := newTimerHeap()
	at := time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)
	s1, s2 := &Session{ID: 1, heapIdx: -1}, &Session{ID: 2, heapIdx: -1}
	h.arm(s2, at)
	h.arm(s1, at)
	var got []uint64
	for _, s := range h.popDue(at) {
		got = append(got, s.ID)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("popDue returned sessions %v, want [1 2]", got)
	}
}
