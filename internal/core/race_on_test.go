//go:build race

package core

// raceEnabled lets the 10⁵-keystroke history tests shrink under the race
// detector, where they would take a minute; CI runs them at full length in
// a dedicated non-race step (see ci.yml).
const raceEnabled = true
