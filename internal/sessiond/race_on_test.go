//go:build race

package sessiond

// raceEnabled lets allocation guards skip under the race detector, whose
// instrumentation makes sync.Pool allocate bookkeeping per operation.
// CI runs the guards in its non-race full run (see ci.yml).
const raceEnabled = true
