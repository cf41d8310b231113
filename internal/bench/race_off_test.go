//go:build !race

package bench

// raceEnabled lets TestFidelity skip under the race detector; see
// race_on_test.go.
const raceEnabled = false
