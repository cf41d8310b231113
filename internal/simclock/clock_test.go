package simclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestRealClockSurface(t *testing.T) {
	var c Real
	t0 := c.Now()
	c.Sleep(-1) // must return immediately
	if c.Since(t0) < 0 {
		t.Fatal("Since went backwards")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-c.NewTimer(5 * time.Second).C():
		t.Fatal("real timer never fired")
	}
	if tm.Stop() {
		t.Error("Stop after fire reported the timer active")
	}
}

// The TestManual* tests drive a Scheduler by hand from the test goroutine,
// as a test clock: the job of the separate Manual clock, which the
// Scheduler absorbed. They keep their names so their history stays
// findable.

func TestManualAdvanceFiresInDeadlineOrder(t *testing.T) {
	s := NewScheduler(epoch)
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	sleeper := func(name string, d time.Duration) {
		defer wg.Done()
		s.Sleep(d)
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	wg.Add(3)
	go sleeper("c", 30*time.Millisecond)
	go sleeper("a", 10*time.Millisecond)
	go sleeper("b", 20*time.Millisecond)
	s.BlockUntilWaiters(3)
	if got := s.WaiterCount(); got != 3 {
		t.Fatalf("WaiterCount = %d, want 3", got)
	}
	s.RunFor(time.Second)
	wg.Wait()
	if got := len(order); got != 3 {
		t.Fatalf("fired %d sleepers, want 3", got)
	}
	// Sleepers appended under a lock after independent wakeups, so the
	// slice order is not guaranteed — but all three must have fired, and
	// the clock must land exactly at the advance target.
	if want := epoch.Add(time.Second); !s.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", s.Now(), want)
	}
	if got := s.WaiterCount(); got != 0 {
		t.Fatalf("WaiterCount = %d after every sleeper woke, want 0", got)
	}
}

func TestManualTimerExactFireTimestamp(t *testing.T) {
	s := NewScheduler(epoch)
	tm := s.NewTimer(10 * time.Millisecond)
	s.RunFor(time.Hour) // one coarse jump across the deadline
	got := <-tm.C()
	if want := epoch.Add(10 * time.Millisecond); !got.Equal(want) {
		t.Fatalf("timer delivered %v, want the exact deadline %v", got, want)
	}
	if !s.Now().Equal(epoch.Add(time.Hour)) {
		t.Fatalf("Now = %v, want %v", s.Now(), epoch.Add(time.Hour))
	}
}

func TestManualTimerStopResetEdges(t *testing.T) {
	s := NewScheduler(epoch)
	tm := s.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer must report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop must report false")
	}
	s.RunFor(time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Reset(5*time.Millisecond) != false {
		t.Fatal("Reset on a stopped timer must report false")
	}
	if tm.Reset(7*time.Millisecond) != true {
		t.Fatal("Reset on an armed timer must report true")
	}
	if got := s.WaiterCount(); got != 1 {
		t.Fatalf("WaiterCount = %d, want 1", got)
	}
	s.RunFor(7 * time.Millisecond)
	<-tm.C()
	if tm.Stop() {
		t.Fatal("Stop after fire must report false")
	}
	// The time.Timer drain idiom must carry over: fire undrained, then
	// Stop + non-blocking drain + Reset yields exactly one next delivery.
	tm.Reset(time.Millisecond)
	s.RunFor(time.Millisecond)
	if tm.Stop() {
		t.Fatal("Stop after second fire must report false")
	}
	select {
	case <-tm.C():
	default:
		t.Fatal("drain found no pending delivery")
	}
	tm.Reset(2 * time.Millisecond)
	s.RunFor(time.Minute)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
	}
	select {
	case <-tm.C():
		t.Fatal("timer delivered twice")
	default:
	}
}

func TestManualZeroDurations(t *testing.T) {
	s := NewScheduler(epoch)
	select {
	case ts := <-s.NewTimer(0).C():
		if !ts.Equal(epoch) {
			t.Fatalf("NewTimer(0) delivered %v, want %v", ts, epoch)
		}
	default:
		t.Fatal("NewTimer(0) must deliver immediately")
	}
	select {
	case <-s.NewTimer(-time.Second).C():
	default:
		t.Fatal("NewTimer(<0) must deliver immediately")
	}
	s.Sleep(0) // must not block
	tm := s.NewTimer(time.Hour)
	if !tm.Reset(0) {
		t.Fatal("Reset(0) on an armed timer must report true")
	}
	select {
	case <-tm.C():
	default:
		t.Fatal("Reset(0) must deliver immediately")
	}
	if got := s.WaiterCount(); got != 0 {
		t.Fatalf("WaiterCount = %d, want 0: an immediate delivery parks nothing", got)
	}
	if _, ok := s.NextAt(); ok {
		t.Fatal("an immediate delivery left an event on the heap")
	}
	tm.Reset(15 * time.Millisecond)
	s.RunFor(15 * time.Millisecond)
	if ts := <-tm.C(); !ts.Equal(epoch.Add(15 * time.Millisecond)) {
		t.Fatalf("timer delivered %v", ts)
	}
}

// TestManualRaceHammer runs concurrent Now/Since/Sleep/timer traffic
// against concurrent RunFor calls; the -race CI tier is the assertion.
func TestManualRaceHammer(t *testing.T) {
	s := NewScheduler(epoch)
	const workers = 8
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer done.Add(1)
			for k := 0; k < 50; k++ {
				s.Now()
				s.Since(epoch)
				if k%3 == i%3 {
					tm := s.NewTimer(time.Duration(1+k%5) * time.Millisecond)
					if k%2 == 0 {
						tm.Stop()
					} else {
						<-tm.C()
					}
				} else {
					s.Sleep(time.Duration(1+k%7) * time.Millisecond)
				}
			}
		}(i)
	}
	// Stepper: keep pushing time until every worker reports done.
	for done.Load() < workers {
		s.RunFor(time.Millisecond)
		s.WaiterCount()
	}
	wg.Wait()
}

// TestSchedulerTimerStopIsAtomic: a timer whose Stop reported it armed
// delivers nothing, even when the stepping goroutine has already popped its
// event. Step checks an event's cancel flag and then runs it unlocked; a
// timer that trusted that check alone delivered after a Stop landing in the
// window (3–17 of the 200 000 successful Stops here, about 3 700 under
// -race), and an old firing could disarm a newer Reset's event.
func TestSchedulerTimerStopIsAtomic(t *testing.T) {
	s := NewScheduler(epoch)
	var gate sync.Mutex // held by the stepper across each RunFor
	quit := make(chan struct{})
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		for {
			select {
			case <-quit:
				return
			default:
			}
			gate.Lock()
			s.RunFor(100 * time.Microsecond)
			gate.Unlock()
		}
	}()

	var stopped []Timer
	late, succeeded := 0, 0
	check := func() {
		// With the stepper parked, every firing Step had popped has run.
		gate.Lock()
		for _, tm := range stopped {
			select {
			case <-tm.C():
				late++
			default:
			}
		}
		gate.Unlock()
		stopped = stopped[:0]
	}
	for i := 0; i < 200000; i++ {
		tm := s.NewTimer(time.Microsecond)
		armed := true
		if i%2 == 1 {
			armed = tm.Reset(time.Microsecond)
		}
		if tm.Stop() && armed {
			succeeded++
			stopped = append(stopped, tm)
		}
		if len(stopped) == 1000 {
			check()
		}
	}
	check()
	close(quit)
	<-stepped
	if late > 0 {
		t.Fatalf("%d of %d timers delivered after Stop reported them stopped", late, succeeded)
	}
	if got := s.WaiterCount(); got != 0 {
		t.Fatalf("WaiterCount = %d with every timer stopped or fired, want 0", got)
	}
}

// TestSchedulerClockSurface exercises the Clock methods the daemon's
// goroutines use against a Scheduler being stepped by another goroutine.
func TestSchedulerClockSurface(t *testing.T) {
	s := NewScheduler(epoch)
	var sleptAt atomic.Value
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Sleep(50 * time.Millisecond)
		sleptAt.Store(s.Now())
		tm := s.NewTimer(20 * time.Millisecond)
		<-tm.C()
		tm.Reset(5 * time.Millisecond)
		<-tm.C()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-done:
			if got := sleptAt.Load().(time.Time); got.Before(epoch.Add(50 * time.Millisecond)) {
				t.Fatalf("Sleep woke at %v, before its deadline", got)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler-backed clock stalled")
		}
		s.RunFor(time.Millisecond)
	}
}

func TestSchedulerTimerStopPreventsFire(t *testing.T) {
	s := NewScheduler(epoch)
	tm := s.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on armed scheduler timer must report true")
	}
	s.RunFor(time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped scheduler timer fired")
	default:
	}
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset on stopped scheduler timer must report false")
	}
	s.RunFor(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset scheduler timer did not fire")
	}
}
