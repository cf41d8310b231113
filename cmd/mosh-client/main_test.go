package main

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/terminal"
)

// eventually polls cond in real time: the pump's timer loop is a real
// goroutine even though it sleeps on a virtual clock.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDisplayFrameHidesCursorWhilePainting: the wire frame no longer hides
// the cursor while it paints, so the client does it on the terminal it
// paints — around a non-empty frame, while the cursor is visible before and
// after. A frame that hides or shows the cursor, and one with nothing to
// paint, go out as they are, and the first paint is the full repaint.
func TestDisplayFrameHidesCursorWhilePainting(t *testing.T) {
	e := terminal.NewEmulator(20, 4)
	step := func(s string) (before, after *terminal.Framebuffer) {
		before = e.Framebuffer().Clone()
		e.Write([]byte(s))
		return before, e.Framebuffer().Clone()
	}
	for _, c := range []struct{ host, want string }{
		{"hi", "\x1b[?25lhi\x1b[?25h"},
		{"\x1b[?25l!", "\x1b[?25l!"},
		{"?", "?"},
		{"\x1b[?25h", "\x1b[?25h"},
		{"\x1b[0m", ""},
	} {
		shown, d := step(c.host)
		if got := string(displayFrame(shown, d)); got != c.want {
			t.Errorf("host wrote %q: display frame %q, want %q", c.host, got, c.want)
		}
	}
	d := e.Framebuffer()
	if got, want := displayFrame(nil, d), terminal.NewFrame(false, nil, d); !bytes.Equal(got, want) {
		t.Errorf("first paint %q, want the full repaint %q", got, want)
	}
}

// TestKeystrokeWakesIdleTimerLoop: a key typed 500 ms into the 3 s heartbeat
// wait is on the wire within 5 ms. The timer loop used to sleep out the wait
// it had computed before the keystroke, so the 1 ms send delay UserBytes
// arms went unserved until a server datagram or the heartbeat came by.
func TestKeystrokeWakesIdleTimerLoop(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewScheduler(epoch)
	key, err := sspcrypto.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sentAt []time.Time
	sent := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(sentAt)
	}
	client, err := core.NewClient(core.ClientConfig{
		Key:   key,
		Clock: clk,
		Emit: func([]byte) {
			mu.Lock()
			sentAt = append(sentAt, clk.Now())
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newPump(client, clk, func() {})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.timers(stop)
	}()
	defer func() {
		close(stop)
		<-done
	}()

	// The client introduces itself at once, then idles until the heartbeat.
	armedAt := func(at time.Time) func() bool {
		return func() bool {
			next, ok := clk.NextAt()
			return ok && next.Equal(at)
		}
	}
	eventually(t, "the introduction and the 3 s heartbeat wait", func() bool {
		return sent() == 1 && armedAt(epoch.Add(3*time.Second))()
	})

	clk.RunFor(500 * time.Millisecond)
	typed := clk.Now()
	p.do(func(c *core.Client) { c.UserBytes([]byte("a")) })
	eventually(t, "the keystroke's 1 ms send delay to reach the timer", armedAt(typed.Add(time.Millisecond)))
	clk.RunFor(5 * time.Millisecond)
	eventually(t, "the keystroke's datagram", func() bool { return sent() == 2 })
	if late := sentAt[1].Sub(typed); late > 5*time.Millisecond {
		t.Fatalf("keystroke sent %v after it was typed, want within 5ms", late)
	}
}

// TestParsePredict: each -predict name selects its display preference, and
// an unknown or empty name is an error instead of adaptive.
func TestParsePredict(t *testing.T) {
	for _, c := range []struct {
		name string
		want overlay.DisplayPreference
		ok   bool
	}{
		{"adaptive", overlay.Adaptive, true},
		{"always", overlay.Always, true},
		{"never", overlay.Never, true},
		{"alwys", 0, false},
		{"", 0, false},
	} {
		got, err := parsePredict(c.name)
		if (err == nil) != c.ok || c.ok && got != c.want {
			t.Errorf("parsePredict(%q) = %v, %v; want %v, ok=%v", c.name, got, err, c.want, c.ok)
		}
	}
}
