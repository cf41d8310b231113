//go:build race

package simclock

// raceEnabled lets allocation guards skip under the race detector, whose
// instrumentation allocates per goroutine start. CI runs the guards in its
// non-race full run (see ci.yml).
const raceEnabled = true
