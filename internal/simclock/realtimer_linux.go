//go:build linux

package simclock

import (
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// newRealTimer returns the Timer Real vends: a timerfd where the kernel
// gives one, time.Timer otherwise.
//
// While any goroutine is parked in the network poller — a UDP reader
// always is — the Go runtime services time.Timer from epoll_wait, whose
// timeout is whole milliseconds, so a timer fires late by a fraction of a
// millisecond (median ≈ 0.65 ms; TestRealTimerLateness measures it). A
// non-blocking timerfd handed to the runtime poller turns expiry into a
// readiness event on that same epoll, delivered at hrtimer resolution, with
// no OS thread of its own.
func newRealTimer(d time.Duration) Timer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return realTimer{time.NewTimer(d)}
	}
	// NewFile registers a non-blocking descriptor with the runtime poller;
	// only a registered file accepts a deadline, which makes this the check
	// that registration worked. The file's finalizer closes the descriptor
	// once the timer is unreachable, as the collector reclaims a time.Timer.
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil || f.SetReadDeadline(time.Time{}) != nil {
		f.Close()
		return realTimer{time.NewTimer(d)}
	}
	t := &fdTimer{f: f, fd: fd, ch: make(chan time.Time, 1)}
	expired := t.expired
	t.wait = func() { rc.Read(expired) } // fails only on a closed file, and nothing closes f while t is reachable
	t.Reset(d)
	return t
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Now's monotonic reading follows

// fdTimer is a one-shot timer on a timerfd. While armed, one goroutine is
// parked in the runtime poller waiting for the descriptor to turn readable;
// it delivers on ch and exits. A stopped or fired timer holds no goroutine,
// so one that is dropped after Stop leaves nothing running. Every state
// change, and every system call on the descriptor, happens under mu: a
// successful read therefore means the current arming expired, because
// timerfd_settime discards the expirations of the arming it replaces.
type fdTimer struct {
	f    *os.File // owns fd; its finalizer is what closes it
	fd   uintptr
	ch   chan time.Time
	wait func() // parks in the poller until expired reports true; built once, so arming allocates nothing

	mu      sync.Mutex
	armed   bool // an expiry is owed to ch
	waiting bool // a goroutine is parked (or about to park) on the descriptor
}

func (t *fdTimer) C() <-chan time.Time { return t.ch }

func (t *fdTimer) Reset(d time.Duration) bool {
	if d <= 0 {
		d = 1 // a zero it_value disarms; fire as soon as the kernel can
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	was := t.armed
	t.armed = true
	t.drain()
	t.settime(d)
	if !t.waiting {
		t.waiting = true
		go t.wait()
	}
	return was
}

func (t *fdTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	was := t.armed
	t.armed = false
	t.drain()
	if t.waiting {
		// Expire now: the parked goroutine wakes, finds nothing owed and
		// exits. A Reset that gets here first re-arms and keeps it.
		t.settime(1)
	}
	return was
}

// drain discards an expiry delivered but not received, so that — like a
// time.Timer's — the channel holds nothing stale once Stop or Reset returns.
func (t *fdTimer) drain() {
	select {
	case <-t.ch:
	default:
	}
}

// expired is the parked goroutine's poll step (RawConn.Read calls it, and
// parks until the descriptor is readable whenever it returns false).
func (t *fdTimer) expired(fd uintptr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ticks [8]byte
	if n, _ := syscall.Read(int(fd), ticks[:]); n != len(ticks) {
		return false // EAGAIN: not expired yet
	}
	t.waiting = false
	if t.armed {
		t.armed = false
		t.ch <- time.Now() // never blocks: capacity 1, drained at every arm
	}
	return true
}

// settime arms the timerfd to expire once, d from now.
func (t *fdTimer) settime(d time.Duration) {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {it_interval, it_value}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	runtime.KeepAlive(t.f)
}
