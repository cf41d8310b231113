//go:build !race

package terminal

// raceEnabled lets the storage pins skip under the race detector; see
// race_on_test.go.
const raceEnabled = false
