package sessiond

import (
	"container/heap"
	"sync"
	"time"
)

// timerHeap is the daemon's single next-deadline structure: every live
// session holds exactly one entry (its earliest pending deadline — sender
// tick, delayed host output, or idle check). One goroutine sleeping on the
// heap's minimum replaces the timer goroutine per session a naive design
// would need, which is what lets one daemon carry thousands of sessions.
//
// Lock order: a Session's mu may be held while taking the heap's mu (every
// arm/remove happens that way); the heap's mu is never held while taking a
// session's mu — popDue collects due sessions under the lock and returns,
// and the caller ticks them after release.
type timerHeap struct {
	mu      sync.Mutex
	entries sessionHeap
	// wake is signaled (non-blocking) whenever the earliest deadline moves
	// earlier, so the async tick loop can re-sleep. Sim drivers ignore it.
	wake chan struct{}
	// dueScratch is reused across popDue calls (single tick driver).
	dueScratch []*Session
}

func newTimerHeap() *timerHeap {
	return &timerHeap{wake: make(chan struct{}, 1)}
}

// arm sets s's deadline to at, inserting or repositioning its entry.
func (h *timerHeap) arm(s *Session, at time.Time) {
	h.mu.Lock()
	moved := false
	if s.heapIdx >= 0 {
		s.deadline = at
		heap.Fix(&h.entries, s.heapIdx)
	} else {
		s.deadline = at
		heap.Push(&h.entries, s)
	}
	if len(h.entries) > 0 && h.entries[0] == s {
		moved = true // s is now the minimum; the sleeper may need to wake
	}
	h.mu.Unlock()
	if moved {
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// remove drops s from the heap (eviction/close).
func (h *timerHeap) remove(s *Session) {
	h.mu.Lock()
	if s.heapIdx >= 0 {
		heap.Remove(&h.entries, s.heapIdx)
	}
	h.mu.Unlock()
}

// next reports the earliest pending deadline.
func (h *timerHeap) next() (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) == 0 {
		return time.Time{}, false
	}
	return h.entries[0].deadline, true
}

// popDue removes and returns every session whose deadline is at or before
// now. Popped sessions are off the heap until their next arm — ticking a
// session always re-arms it. The returned slice is scratch owned by the
// heap, valid until the next popDue call; only the single tick driver
// (tick loop or sim pump) calls it.
func (h *timerHeap) popDue(now time.Time) []*Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	due := h.dueScratch[:0]
	for len(h.entries) > 0 && !h.entries[0].deadline.After(now) {
		due = append(due, heap.Pop(&h.entries).(*Session))
	}
	h.dueScratch = due
	return due
}

// sessionHeap implements container/heap over sessions by deadline, and by
// session ID among equal deadlines, so sessions due at the same instant are
// ticked in an order that does not depend on the heap's history.
type sessionHeap []*Session

func (q sessionHeap) Len() int { return len(q) }
func (q sessionHeap) Less(i, j int) bool {
	if c := q[i].deadline.Compare(q[j].deadline); c != 0 {
		return c < 0
	}
	return q[i].ID < q[j].ID
}
func (q sessionHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i]; q[i].heapIdx = i; q[j].heapIdx = j }
func (q *sessionHeap) Push(x any)   { s := x.(*Session); s.heapIdx = len(*q); *q = append(*q, s) }
func (q *sessionHeap) Pop() any {
	old := *q
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.heapIdx = -1
	*q = old[:n-1]
	return s
}
