package simclock

import (
	"testing"
	"time"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(t0)
	var got []int
	s.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	s.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	s.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	s.Drain(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if want := t0.Add(30 * time.Millisecond); !s.Now().Equal(want) {
		t.Fatalf("clock = %v, want %v", s.Now(), want)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(t0)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AfterFunc(time.Millisecond, func() { got = append(got, i) })
	}
	s.Drain(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(t0)
	fired := false
	e := s.AfterFunc(time.Millisecond, func() { fired = true })
	e.Cancel()
	s.Drain(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler(t0)
	s.RunFor(time.Second)
	var at time.Time
	s.At(t0, func() { at = s.Now() })
	s.Drain(0)
	if !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("past event ran at %v, want clamped to now %v", at, t0.Add(time.Second))
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	s := NewScheduler(t0)
	s.RunUntil(t0.Add(5 * time.Second))
	if !s.Now().Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestRunUntilDoesNotRunLaterEvents(t *testing.T) {
	s := NewScheduler(t0)
	fired := false
	s.AfterFunc(2*time.Second, func() { fired = true })
	s.RunUntil(t0.Add(time.Second))
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	s.RunUntil(t0.Add(3 * time.Second))
	if !fired {
		t.Fatal("event within horizon did not fire")
	}
}

func TestEventsScheduledDuringEvents(t *testing.T) {
	s := NewScheduler(t0)
	var times []time.Duration
	s.AfterFunc(10*time.Millisecond, func() {
		times = append(times, s.Now().Sub(t0))
		s.AfterFunc(10*time.Millisecond, func() {
			times = append(times, s.Now().Sub(t0))
		})
	})
	s.Drain(0)
	if len(times) != 2 || times[0] != 10*time.Millisecond || times[1] != 20*time.Millisecond {
		t.Fatalf("nested scheduling wrong: %v", times)
	}
}

func TestTimerResetReplacesDeadline(t *testing.T) {
	s := NewScheduler(t0)
	count := 0
	tm := s.NewEventTimer(func() { count++ })
	tm.ResetAfter(10 * time.Millisecond)
	tm.ResetAfter(50 * time.Millisecond)
	s.RunFor(30 * time.Millisecond)
	if count != 0 {
		t.Fatal("old deadline fired after Reset")
	}
	s.RunFor(30 * time.Millisecond)
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(t0)
	count := 0
	tm := s.NewEventTimer(func() { count++ })
	tm.ResetAfter(10 * time.Millisecond)
	tm.Stop()
	s.RunFor(time.Second)
	if count != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestNextAtSkipsCancelled(t *testing.T) {
	s := NewScheduler(t0)
	e := s.AfterFunc(time.Millisecond, func() {})
	s.AfterFunc(2*time.Millisecond, func() {})
	e.Cancel()
	at, ok := s.NextAt()
	if !ok || !at.Equal(t0.Add(2*time.Millisecond)) {
		t.Fatalf("NextAt = %v, %v", at, ok)
	}
}

func TestManualClock(t *testing.T) {
	s := NewScheduler(t0)
	s.RunFor(time.Minute)
	if !s.Now().Equal(t0.Add(time.Minute)) {
		t.Fatalf("manual clock = %v", s.Now())
	}
}

func TestDrainLimit(t *testing.T) {
	s := NewScheduler(t0)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		s.AfterFunc(time.Millisecond, reschedule)
	}
	s.AfterFunc(time.Millisecond, reschedule)
	n := s.Drain(100)
	if n != 100 || count != 100 {
		t.Fatalf("Drain ran %d events, counted %d; want 100", n, count)
	}
}
