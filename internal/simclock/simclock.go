// Package simclock provides the single time regime shared by every
// component in this repository. Protocol endpoints, the sessiond event
// loops, and the benchmarks are all written against the Clock interface so
// that the identical state machines can run in real time (over UDP
// sockets), under an explicitly driven test clock, or inside a
// deterministic discrete-event simulation that regenerates the paper's
// experiments bit-for-bit.
//
// Two implementations cover the repertoire:
//
//   - Real: the system clock.
//   - Scheduler: a discrete-event simulator (callback events, virtual
//     timers) whose time moves only when it is stepped. It satisfies Clock,
//     so it is both the test clock and the clock injected wholesale into
//     the daemon under simulation.
package simclock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the full time surface the rest of the repository is allowed to
// touch. Everything mirrors the time package; Now (and Since) must be safe
// for concurrent use — daemon worker goroutines read the clock for
// telemetry while another goroutine advances it.
type Clock interface {
	// Now returns the clock's current time.
	Now() time.Time
	// Since returns the elapsed time since t on this clock.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d of this clock's time.
	// Sleep(d) for d <= 0 returns immediately.
	Sleep(d time.Duration)
	// NewTimer returns an armed timer that delivers on C after d.
	NewTimer(d time.Duration) Timer
}

// Timer is the restartable one-shot timer every Clock vends. C returns the
// same channel on every call, so the time.Timer drain idiom
// (Stop, then non-blocking receive from C, then Reset) carries over
// verbatim. A non-positive duration delivers at once. Stop and Reset report
// whether the timer was still armed, and are atomic with respect to a
// firing: once Stop reports true, the arming it stopped delivers nothing.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the Clock backed by the system clock. The zero value is ready to
// use; this package is the one place naked time.* calls are allowed.
type Real struct{}

// Now returns the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Since returns the wall-clock time elapsed since t.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep pauses the calling goroutine for d of real time.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// NewTimer returns a real-time Timer: on Linux one that fires at hrtimer
// resolution (see realtimer_linux.go), elsewhere a wrapped time.Timer.
func (Real) NewTimer(d time.Duration) Timer { return newRealTimer(d) }

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time        { return rt.t.C }
func (rt realTimer) Stop() bool                 { return rt.t.Stop() }
func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }

// Event is a scheduled callback inside a Scheduler. It may be cancelled
// before it fires.
type Event struct {
	at       time.Time
	seq      uint64 // tie-break: FIFO among events at the same instant
	fn       func()
	canceled atomic.Bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Safe to call from any goroutine
// (timers owned by daemon loops stop their events from outside the
// simulation goroutine).
func (e *Event) Cancel() {
	if e != nil {
		e.canceled.Store(true)
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if c := h[i].at.Compare(h[j].at); c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler is a deterministic discrete-event simulator. It implements
// Clock; time advances only when events run. Events scheduled for the same
// instant fire in the order they were scheduled.
//
// The stepping methods (Step, RunUntil, RunFor, Drain) are confined to the
// simulation goroutine, and determinism holds only for work scheduled from
// it. Everything else — Now, Since, AfterFunc, At, the Clock timer surface
// — is safe to call from any goroutine: the heap is mutex-guarded so that
// daemon worker goroutines can arm wait timers against virtual time while
// the simulation goroutine steps. Sleep and the timer channels only make
// progress while some other goroutine steps the scheduler; calling Sleep
// from the simulation goroutine itself deadlocks.
//
// The Clock timers keep time.Timer's contract. A non-positive duration
// delivers at once, without an event. Each delivery carries exactly its
// deadline, however coarse the RunFor that crossed it. Stop and Reset are
// atomic with respect to a firing: an event Step has already popped
// delivers only if its arming is still current when it runs. Parked Sleeps
// and armed timers are the clock's waiters, which WaiterCount counts and
// BlockUntilWaiters waits for; callback events are not waiters. A goroutine
// woken during a RunFor runs concurrently with it, so a wait it re-arms
// inside the window may fire within that same RunFor (the Manual clock this
// replaced held its lock across an advance, deferring such a wait to the next).
//
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	mu      sync.Mutex // guards now, seq, heap, and waiters
	parked  sync.Cond  // broadcast on s.mu whenever waiters grows
	now     time.Time
	seq     uint64
	heap    eventHeap
	waiters int // parked Sleeps plus armed Clock timers
}

// NewScheduler returns a Scheduler whose clock starts at start.
func NewScheduler(start time.Time) *Scheduler {
	s := &Scheduler{now: start}
	s.parked.L = &s.mu
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since returns the virtual time elapsed since t.
func (s *Scheduler) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// At schedules fn to run at time t. Scheduling in the past runs the event at
// the current time (it will fire on the next Step).
func (s *Scheduler) At(t time.Time, fn func()) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.atLocked(t, fn)
}

func (s *Scheduler) atLocked(t time.Time, fn func()) *Event {
	if t.Before(s.now) {
		t = s.now
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.heap, e)
	return e
}

// AfterFunc schedules fn to run d from now, like time.AfterFunc but in
// virtual time.
func (s *Scheduler) AfterFunc(d time.Duration, fn func()) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.atLocked(s.now.Add(d), fn)
}

// NextAt returns the firing time of the earliest pending live event, and
// false if none is pending.
func (s *Scheduler) NextAt() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.heap) > 0 && s.heap[0].canceled.Load() {
		heap.Pop(&s.heap)
	}
	if len(s.heap) == 0 {
		return time.Time{}, false
	}
	return s.heap[0].at, true
}

// Step advances the clock to the next live event and runs it. It returns
// false if no events remain. The event callback runs with the scheduler
// unlocked, so callbacks may schedule freely.
func (s *Scheduler) Step() bool {
	for {
		s.mu.Lock()
		if len(s.heap) == 0 {
			s.mu.Unlock()
			return false
		}
		e := heap.Pop(&s.heap).(*Event)
		if e.canceled.Load() {
			s.mu.Unlock()
			continue
		}
		s.now = e.at
		s.mu.Unlock()
		e.fn()
		return true
	}
}

// RunUntil runs events with firing times <= t, then advances the clock to t.
func (s *Scheduler) RunUntil(t time.Time) {
	for {
		at, ok := s.NextAt()
		if !ok || at.After(t) {
			break
		}
		s.Step()
	}
	s.mu.Lock()
	if s.now.Before(t) {
		s.now = t
	}
	s.mu.Unlock()
}

// RunFor runs the simulation for duration d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.Now().Add(d)) }

// Drain runs events until none remain or the limit of steps is hit,
// returning the number of events run. A limit of 0 means no limit.
func (s *Scheduler) Drain(limit int) int {
	n := 0
	for limit == 0 || n < limit {
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// parkLocked schedules a waiter's event d from now and counts the waiter
// until unpark.
func (s *Scheduler) parkLocked(d time.Duration, fn func()) *Event {
	s.waiters++
	s.parked.Broadcast()
	return s.atLocked(s.now.Add(d), fn)
}

func (s *Scheduler) unpark() {
	s.mu.Lock()
	s.waiters--
	s.mu.Unlock()
}

// WaiterCount reports how many parked Sleeps and armed timers there are.
func (s *Scheduler) WaiterCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters
}

// BlockUntilWaiters blocks until at least n Sleeps and armed timers wait on
// the clock: the test-side rendezvous that makes "the loop under test has
// gone to sleep" observable instead of a real-time guess.
func (s *Scheduler) BlockUntilWaiters(n int) {
	s.mu.Lock()
	for s.waiters < n {
		s.parked.Wait()
	}
	s.mu.Unlock()
}

// Sleep blocks the calling goroutine for d of virtual time. It must be
// called from a goroutine other than the one stepping the scheduler.
func (s *Scheduler) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{})
	s.mu.Lock()
	s.parkLocked(d, func() { s.unpark(); close(ch) })
	s.mu.Unlock()
	<-ch
}

// NewTimer returns an armed Timer that fires in virtual time. Safe for use
// from daemon goroutines while the simulation goroutine steps.
func (s *Scheduler) NewTimer(d time.Duration) Timer {
	t := &schedTimer{s: s, ch: make(chan time.Time, 1)}
	t.mu.Lock()
	t.armLocked(d)
	t.mu.Unlock()
	return t
}

// schedTimer is a Clock timer on a Scheduler. Lock order: t.mu, then s.mu.
type schedTimer struct {
	s  *Scheduler
	ch chan time.Time

	mu sync.Mutex
	ev *Event // the current arming; nil when stopped or fired
}

func (t *schedTimer) armLocked(d time.Duration) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if d <= 0 {
		t.deliver(t.s.now)
		return
	}
	var ev *Event
	ev = t.s.parkLocked(d, func() { t.fire(ev) })
	t.ev = ev
}

// fire runs ev's delivery unless a Stop or Reset has replaced that arming
// since Step popped it.
func (t *schedTimer) fire(ev *Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ev != ev {
		return
	}
	t.ev = nil
	t.s.unpark()
	t.deliver(ev.at)
}

func (t *schedTimer) deliver(at time.Time) {
	select {
	case t.ch <- at:
	default: // an undrained delivery already holds the slot
	}
}

func (t *schedTimer) stopLocked() bool {
	if t.ev == nil {
		return false
	}
	t.ev.Cancel()
	t.ev = nil
	t.s.unpark()
	return true
}

func (t *schedTimer) C() <-chan time.Time { return t.ch }

func (t *schedTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stopLocked()
}

func (t *schedTimer) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	active := t.stopLocked()
	t.armLocked(d)
	return active
}

// EventTimer is a restartable one-shot callback timer on a Scheduler, a
// convenience for protocol endpoints that keep re-arming a single deadline
// (retransmission, heartbeat, and so on). Unlike the Clock timer surface it
// is confined to the simulation goroutine.
type EventTimer struct {
	s  *Scheduler
	ev *Event
	fn func()
}

// NewEventTimer returns a stopped timer that runs fn when it fires.
func (s *Scheduler) NewEventTimer(fn func()) *EventTimer { return &EventTimer{s: s, fn: fn} }

// Reset arms the timer to fire at t, replacing any earlier deadline.
func (t *EventTimer) Reset(at time.Time) {
	t.Stop()
	t.ev = t.s.At(at, t.fn)
}

// ResetAfter arms the timer to fire d from now.
func (t *EventTimer) ResetAfter(d time.Duration) { t.Reset(t.s.Now().Add(d)) }

// Stop cancels any pending firing.
func (t *EventTimer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}
