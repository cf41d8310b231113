package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Manual is a Clock whose time moves only when Advance or Set is called.
// Sleepers and timers park on a waiter heap; an advance fires every waiter
// whose deadline it crosses, in deadline order, with the clock reading
// exactly the waiter's deadline at each delivery — so code under test sees
// the same exact timestamps a discrete-event simulation would produce.
//
// Manual is safe for concurrent use. Tests coordinate with the code under
// test via BlockUntilWaiters: a goroutine that calls Sleep/After/NewTimer
// registers its waiter before blocking, so "the loop has gone to sleep on
// the clock" is an observable condition rather than a real-time guess.
type Manual struct {
	mu   sync.Mutex
	cond *sync.Cond
	now  time.Time
	seq  uint64
	wh   waiterHeap
}

// NewManual returns a Manual clock set to start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.cond = sync.NewCond(&m.mu)
	return m
}

const (
	waitSleep = iota // a goroutine blocked in Sleep
	waitAfter        // an After channel (caller assumed to block on it)
	waitTimer        // an armed NewTimer
)

type waiter struct {
	at   time.Time
	seq  uint64
	idx  int // heap index, -1 once popped/removed
	kind int
	ch   chan time.Time
	tm   *manualTimer // back-pointer so a fire disarms the timer; nil otherwise
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.idx = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.idx = -1
	*h = old[:n-1]
	return w
}

// Now returns the manual clock's current time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since returns the elapsed manual-clock time since t.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Advance moves the clock forward by d, firing every waiter whose deadline
// falls within the window, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advanceToLocked(m.now.Add(d))
}

// Set jumps the clock to t (firing crossed waiters). Setting the clock
// backwards only moves the reading; waiters keep their deadlines.
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.Before(m.now) {
		m.now = t
		return
	}
	m.advanceToLocked(t)
}

func (m *Manual) advanceToLocked(t time.Time) {
	for len(m.wh) > 0 {
		w := m.wh[0]
		if w.at.After(t) {
			break
		}
		heap.Pop(&m.wh)
		if w.at.After(m.now) {
			m.now = w.at // deliver with the waiter's exact timestamp
		}
		if w.tm != nil {
			w.tm.w = nil
		}
		select {
		case w.ch <- m.now:
		default: // timer channel already holds an undrained fire
		}
	}
	if m.now.Before(t) {
		m.now = t
	}
	m.cond.Broadcast()
}

// addWaiterLocked parks a waiter delivering on ch (nil allocates a fresh
// 1-buffered channel).
func (m *Manual) addWaiterLocked(at time.Time, kind int, ch chan time.Time, tm *manualTimer) *waiter {
	if ch == nil {
		ch = make(chan time.Time, 1)
	}
	w := &waiter{at: at, seq: m.seq, kind: kind, ch: ch, tm: tm}
	m.seq++
	heap.Push(&m.wh, w)
	if tm != nil {
		tm.w = w
	}
	m.cond.Broadcast()
	return w
}

// Sleep blocks the calling goroutine until the clock has been advanced d
// past the current reading. Sleep(d) for d <= 0 returns immediately.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	w := m.addWaiterLocked(m.now.Add(d), waitSleep, nil, nil)
	m.mu.Unlock()
	<-w.ch
}

// After returns a channel that delivers the clock's time once it has been
// advanced d past the current reading.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- m.now
		return ch
	}
	return m.addWaiterLocked(m.now.Add(d), waitAfter, nil, nil).ch
}

// NewTimer returns an armed Timer firing once the clock has been advanced d
// past the current reading. A non-positive d delivers immediately.
func (m *Manual) NewTimer(d time.Duration) Timer {
	t := &manualTimer{m: m, ch: make(chan time.Time, 1)}
	m.mu.Lock()
	t.armLocked(d)
	m.mu.Unlock()
	return t
}

type manualTimer struct {
	m  *Manual
	ch chan time.Time
	w  *waiter // nil when not armed; guarded by m.mu
}

func (t *manualTimer) armLocked(d time.Duration) {
	if d <= 0 {
		select {
		case t.ch <- t.m.now:
		default:
		}
		return
	}
	t.m.addWaiterLocked(t.m.now.Add(d), waitTimer, t.ch, t)
}

func (t *manualTimer) C() <-chan time.Time { return t.ch }

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.w == nil {
		return false
	}
	heap.Remove(&t.m.wh, t.w.idx)
	t.w = nil
	t.m.cond.Broadcast()
	return true
}

func (t *manualTimer) Reset(d time.Duration) bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	active := t.w != nil
	if active {
		heap.Remove(&t.m.wh, t.w.idx)
		t.w = nil
	}
	t.armLocked(d)
	return active
}

// WaiterCount reports how many waits are currently parked on the clock:
// blocked sleepers, outstanding After channels, and armed timers.
func (m *Manual) WaiterCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.wh)
}

// PendingTimers reports how many armed NewTimer timers are parked,
// excluding sleepers and After channels.
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.wh {
		if w.kind == waitTimer {
			n++
		}
	}
	return n
}

// NextDeadline returns the earliest parked deadline, and false if nothing
// is waiting.
func (m *Manual) NextDeadline() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.wh) == 0 {
		return time.Time{}, false
	}
	return m.wh[0].at, true
}

// BlockUntilWaiters blocks until at least n waits are parked on the clock
// (sleepers, After channels, and armed timers all count). It is the
// test-side rendezvous: start the loop under test, BlockUntilWaiters(1),
// then Advance past its deadline.
func (m *Manual) BlockUntilWaiters(n int) {
	m.mu.Lock()
	for len(m.wh) < n {
		m.cond.Wait()
	}
	m.mu.Unlock()
}
