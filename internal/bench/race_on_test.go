//go:build race

package bench

// raceEnabled lets TestFidelity skip under the race detector, where its
// paper-scale runs take minutes. CI runs it in its non-race full run and
// its §4 smoke step (see ci.yml).
const raceEnabled = true
