//go:build race

package statesync

// raceEnabled lets allocation guards that borrow from a sync.Pool skip under
// the race detector, which makes the pool drop a quarter of what is Put into
// it. CI runs the guards in its non-race full run (see ci.yml).
const raceEnabled = true
