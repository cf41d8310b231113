package bench

import (
	"time"

	"repro/internal/simclock"
	"repro/internal/trace"
)

// hostReplay is the host side of a trace replay (paper §4), shared by
// both arms: it counts the user's bytes as the host receives them and,
// once step k's input is complete, writes step k's prerecorded response
// after its delay. Writes are serialized: even when several keystrokes
// arrive together, the host replies in input order.
type hostReplay struct {
	sched   *simclock.Scheduler
	steps   []trace.Step
	stepEnd []int // input bytes through the end of each step
	matched int   // input bytes received so far
	next    int   // first step whose input is incomplete
	lastAt  time.Time
	write   func(step int, response []byte)
}

func newHostReplay(sched *simclock.Scheduler, tr *trace.Trace, write func(step int, response []byte)) *hostReplay {
	h := &hostReplay{sched: sched, steps: tr.Steps, stepEnd: make([]int, len(tr.Steps)), write: write}
	off := 0
	for i, st := range tr.Steps {
		off += len(st.Data)
		h.stepEnd[i] = off
	}
	return h
}

// Input accounts for n bytes of user input reaching the host.
func (h *hostReplay) Input(n int) {
	h.matched += n
	for h.next < len(h.steps) && h.stepEnd[h.next] <= h.matched {
		si := h.next
		h.next++
		st := h.steps[si]
		if len(st.Response) == 0 {
			continue
		}
		at := h.sched.Now().Add(st.ResponseDelay)
		if at.Before(h.lastAt) {
			at = h.lastAt
		}
		h.lastAt = at
		h.sched.At(at, func() { h.write(si, st.Response) })
	}
}
