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
	case <-c.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	if tm.Stop() {
		t.Error("Stop after fire reported the timer active")
	}
}

func TestManualAdvanceFiresInDeadlineOrder(t *testing.T) {
	m := NewManual(epoch)
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	sleeper := func(name string, d time.Duration) {
		defer wg.Done()
		m.Sleep(d)
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	wg.Add(3)
	go sleeper("c", 30*time.Millisecond)
	go sleeper("a", 10*time.Millisecond)
	go sleeper("b", 20*time.Millisecond)
	m.BlockUntilWaiters(3)
	if got := m.WaiterCount(); got != 3 {
		t.Fatalf("WaiterCount = %d, want 3", got)
	}
	m.Advance(time.Second)
	wg.Wait()
	if got := len(order); got != 3 {
		t.Fatalf("fired %d sleepers, want 3", got)
	}
	// Sleepers appended under a lock after independent wakeups, so the
	// slice order is not guaranteed — but all three must have fired, and
	// the clock must land exactly at the advance target.
	if want := epoch.Add(time.Second); !m.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", m.Now(), want)
	}
}

func TestManualTimerExactFireTimestamp(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(10 * time.Millisecond)
	m.Advance(time.Hour) // one coarse jump across the deadline
	got := <-tm.C()
	if want := epoch.Add(10 * time.Millisecond); !got.Equal(want) {
		t.Fatalf("timer delivered %v, want the exact deadline %v", got, want)
	}
	if !m.Now().Equal(epoch.Add(time.Hour)) {
		t.Fatalf("Now = %v, want %v", m.Now(), epoch.Add(time.Hour))
	}
}

func TestManualTimerStopResetEdges(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer must report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop must report false")
	}
	m.Advance(time.Second)
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
	if got := m.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d, want 1", got)
	}
	m.Advance(7 * time.Millisecond)
	<-tm.C()
	if tm.Stop() {
		t.Fatal("Stop after fire must report false")
	}
	// The time.Timer drain idiom must carry over: fire undrained, then
	// Stop + non-blocking drain + Reset yields exactly one next delivery.
	tm.Reset(time.Millisecond)
	m.Advance(time.Millisecond)
	if tm.Stop() {
		t.Fatal("Stop after second fire must report false")
	}
	select {
	case <-tm.C():
	default:
		t.Fatal("drain found no pending delivery")
	}
	tm.Reset(2 * time.Millisecond)
	m.Advance(time.Minute)
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

func TestManualAfterAndZeroDurations(t *testing.T) {
	m := NewManual(epoch)
	select {
	case ts := <-m.After(0):
		if !ts.Equal(epoch) {
			t.Fatalf("After(0) delivered %v, want %v", ts, epoch)
		}
	default:
		t.Fatal("After(0) must deliver immediately")
	}
	select {
	case <-m.NewTimer(-time.Second).C():
	default:
		t.Fatal("NewTimer(<0) must deliver immediately")
	}
	m.Sleep(0) // must not block
	ch := m.After(15 * time.Millisecond)
	m.Advance(15 * time.Millisecond)
	if ts := <-ch; !ts.Equal(epoch.Add(15 * time.Millisecond)) {
		t.Fatalf("After delivered %v", ts)
	}
}

// TestManualRaceHammer runs concurrent Now/Since/Sleep/timer traffic
// against concurrent Advance calls; the -race CI tier is the assertion.
func TestManualRaceHammer(t *testing.T) {
	m := NewManual(epoch)
	const workers = 8
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer done.Add(1)
			for k := 0; k < 50; k++ {
				m.Now()
				m.Since(epoch)
				if k%3 == i%3 {
					tm := m.NewTimer(time.Duration(1+k%5) * time.Millisecond)
					if k%2 == 0 {
						tm.Stop()
					} else {
						<-tm.C()
					}
				} else {
					m.Sleep(time.Duration(1+k%7) * time.Millisecond)
				}
			}
		}(i)
	}
	// Advancer: keep pushing time until every worker reports done.
	for done.Load() < workers {
		m.Advance(time.Millisecond)
		m.WaiterCount()
		m.PendingTimers()
	}
	wg.Wait()
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
		<-s.After(5 * time.Millisecond)
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
