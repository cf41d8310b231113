//go:build race

package terminal

// raceEnabled lets the storage pins skip under the race detector, whose
// instrumentation allocates beside the code it measures. CI runs them in
// its non-race test step (see ci.yml).
const raceEnabled = true
