//go:build linux

package simclock

import (
	"net"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// fdTimerOrSkip returns a Real timer, skipping loudly when the kernel gave
// no timerfd and Real fell back to time.Timer.
func fdTimerOrSkip(t *testing.T, d time.Duration) *fdTimer {
	t.Helper()
	ft, ok := Real{}.NewTimer(d).(*fdTimer)
	if !ok {
		t.Skip("SKIP: timerfd unavailable on this kernel; simclock.Real vends time.Timer and is as late as time.Timer is")
	}
	return ft
}

// parkUDPReader leaves a goroutine parked in a UDP read for the test's
// duration: with a goroutine in the network poller the runtime sleeps in
// epoll_wait, which is the regime the daemon's tick loop lives in.
func parkUDPReader(t *testing.T) {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn.ReadFromUDP(make([]byte, 64))
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
}

func median(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// TestRealTimerLateness is the reason fdTimer exists: with a goroutine
// parked in a UDP read, Real's timer fires within 300 µs of its deadline at
// the median, where time.Timer (logged beside it) is late by most of a
// millisecond.
func TestRealTimerLateness(t *testing.T) {
	ft := fdTimerOrSkip(t, time.Hour)
	defer ft.Stop()
	parkUDPReader(t)
	std := time.NewTimer(time.Hour)
	defer std.Stop()

	const waits = 100
	var fdLate, stdLate []time.Duration
	for i := 0; i < waits; i++ {
		d := 8*time.Millisecond + time.Duration(i%10)*100*time.Microsecond
		start := time.Now()
		ft.Reset(d)
		<-ft.C()
		fdLate = append(fdLate, time.Since(start)-d)
		start = time.Now()
		std.Reset(d)
		<-std.C
		stdLate = append(stdLate, time.Since(start)-d)
	}
	fd50, std50 := median(fdLate), median(stdLate)
	t.Logf("lateness over %d waits of 8.0-8.9 ms, GOMAXPROCS %d: simclock.Real p50 %v p90 %v; time.Timer p50 %v p90 %v",
		waits, runtime.GOMAXPROCS(0), fd50, fdLate[waits*9/10], std50, stdLate[waits*9/10])
	if fdLate[0] < 0 {
		t.Fatalf("timer fired %v early", -fdLate[0])
	}
	if fd50 >= 300*time.Microsecond {
		t.Fatalf("simclock.Real timer p50 lateness %v, want < 300µs (time.Timer: %v)", fd50, std50)
	}
}

// TestRealTimerStopResetEdges holds fdTimer to the Timer contract.
func TestRealTimerStopResetEdges(t *testing.T) {
	ft := fdTimerOrSkip(t, time.Hour)
	if !ft.Stop() {
		t.Fatal("Stop on an armed timer reported it idle")
	}
	if ft.Stop() {
		t.Fatal("second Stop reported the timer armed")
	}
	if ft.Reset(0) {
		t.Fatal("Reset on a stopped timer reported it armed")
	}
	select {
	case <-ft.C():
	case <-time.After(time.Second):
		t.Fatal("Reset(0) did not fire")
	}
	if ft.Stop() {
		t.Fatal("Stop after the timer fired reported it armed")
	}

	// A Reset replaces the deadline: the long one must not fire, and the
	// short one fires once.
	ft.Reset(time.Hour)
	if !ft.Reset(2 * time.Millisecond) {
		t.Fatal("Reset on an armed timer reported it idle")
	}
	<-ft.C()
	select {
	case <-ft.C():
		t.Fatal("timer fired twice for one arming")
	case <-time.After(20 * time.Millisecond):
	}

	// An expiry nobody received does not survive Stop or Reset.
	ft.Reset(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	ft.Reset(time.Hour)
	select {
	case <-ft.C():
		t.Fatal("stale expiry survived Reset")
	default:
	}
	ft.Stop()

	// Stop racing the expiry itself: whichever wins, at most one value.
	for i := 0; i < 200; i++ {
		ft.Reset(50 * time.Microsecond)
		time.Sleep(time.Duration(i%100) * time.Microsecond)
		stopped := ft.Stop()
		select {
		case <-ft.C():
			t.Fatalf("iteration %d: value on C after Stop returned %v", i, stopped)
		default:
		}
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// TestRealTimerLeavesNothingBehind: a stopped timer holds no goroutine, and
// a dropped one gives its descriptor back.
func TestRealTimerLeavesNothingBehind(t *testing.T) {
	fdTimerOrSkip(t, time.Hour).Stop()
	settle := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("%s", what)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	settle("baseline never settled", func() bool {
		g, f := runtime.NumGoroutine(), openFDs(t)
		same := g == goroutines && f == fds
		goroutines, fds = g, f
		return same
	})
	for i := 0; i < 50; i++ {
		tm := Real{}.NewTimer(time.Hour)
		tm.Reset(time.Minute)
		tm.Stop()
	}
	settle("stopped timers left goroutines parked", func() bool { return runtime.NumGoroutine() <= goroutines })
	settle("dropped timers kept their descriptors", func() bool { return openFDs(t) <= fds })
}

// TestRealTimerArmAllocFree: the tick loop re-arms its timer once per sweep,
// so arming — the settime and the parked goroutine it starts — allocates
// nothing.
func TestRealTimerArmAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per goroutine start")
	}
	ft := fdTimerOrSkip(t, time.Hour)
	defer ft.Stop()
	if allocs := testing.AllocsPerRun(200, func() {
		ft.Reset(time.Hour)
		ft.Stop()
		ft.Reset(50 * time.Microsecond)
		<-ft.C()
	}); allocs > 0 {
		t.Fatalf("arm/stop/fire cycle allocates %.1f objects, want 0", allocs)
	}
}
