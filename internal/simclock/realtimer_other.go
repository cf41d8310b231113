//go:build !linux

package simclock

import "time"

// newRealTimer returns the Timer Real vends: a time.Timer (Linux has a more
// precise one, see realtimer_linux.go).
func newRealTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }
