//go:build race

package transport

// raceEnabled lets allocation guards skip under the race detector, which
// makes sync.Pool drop a quarter of what is Put into it. CI runs the guards
// in its non-race full run (see ci.yml).
const raceEnabled = true
