//go:build !race

package statesync

// raceEnabled lets allocation guards skip under the race detector; see
// race_on_test.go.
const raceEnabled = false
