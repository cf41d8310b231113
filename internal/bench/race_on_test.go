//go:build race

package bench

// raceEnabled lets TestFidelity skip under the race detector, where its
// paper-scale runs take minutes. CI runs it in the non-race §4 smoke step
// (see ci.yml).
const raceEnabled = true
