//go:build !race

package core

// raceEnabled lets the 10⁵-keystroke history tests shrink under the race
// detector; see race_on_test.go.
const raceEnabled = false
