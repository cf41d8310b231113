package overlay

import (
	"fmt"
	"time"

	"repro/internal/simclock"
	"repro/internal/terminal"
)

// NotificationEngine paints the client's connectivity banner: when the
// server has been silent long enough that the session may be dead, the
// top row shows how long ago the last contact was (the paper's client
// "warn[s] the user when it hasn't recently heard from the server", §2.3).
type NotificationEngine struct {
	clock simclock.Clock

	lastWordFromServer time.Time
	heardOnce          bool

	// Message is an optional extra note (e.g. "mosh: connecting...").
	Message string

	// SilenceThreshold is how long the server may be quiet before the
	// banner appears; the default allows for a few missed heartbeats.
	SilenceThreshold time.Duration
}

// NewNotificationEngine returns a banner engine.
func NewNotificationEngine(clock simclock.Clock) *NotificationEngine {
	return &NotificationEngine{
		clock:            clock,
		SilenceThreshold: 6500 * time.Millisecond, // two heartbeats + slack
	}
}

// ServerHeard records an authentic packet arrival.
func (n *NotificationEngine) ServerHeard() {
	n.lastWordFromServer = n.clock.Now()
	n.heardOnce = true
}

// SinceHeard reports the current silence length.
func (n *NotificationEngine) SinceHeard() (time.Duration, bool) {
	if !n.heardOnce {
		return 0, false
	}
	return n.clock.Now().Sub(n.lastWordFromServer), true
}

// NeedsBanner reports whether Apply would paint anything.
func (n *NotificationEngine) NeedsBanner() bool {
	if n.Message != "" {
		return true
	}
	d, ok := n.SinceHeard()
	return ok && d >= n.SilenceThreshold
}

// humanDuration renders a silence length the way the real client does.
func humanDuration(d time.Duration) string {
	switch {
	case d < 2*time.Minute:
		return fmt.Sprintf("%d seconds", int(d.Seconds()))
	case d < 2*time.Hour:
		return fmt.Sprintf("%d minutes", int(d.Minutes()))
	default:
		return fmt.Sprintf("%d hours", int(d.Hours()))
	}
}

// Apply paints the banner over the top row of the display copy.
func (n *NotificationEngine) Apply(fb *terminal.Framebuffer) {
	if !n.NeedsBanner() || fb.H < 1 {
		return
	}
	var text string
	d, ok := n.SinceHeard()
	switch {
	case n.Message != "" && ok && d >= n.SilenceThreshold:
		text = fmt.Sprintf("mosh: %s (last contact %s ago)", n.Message, humanDuration(d))
	case n.Message != "":
		text = "mosh: " + n.Message
	default:
		text = fmt.Sprintf("mosh: Last contact %s ago.", humanDuration(d))
	}
	text = " " + text + " "
	var rend terminal.Renditions
	rend.Set(terminal.AttrInverse|terminal.AttrBold, true)
	for col := 0; col < fb.W; col++ {
		c := fb.Cell(0, col)
		if col < len(text) {
			c.SetRune(rune(text[col]))
		} else {
			c.SetRune(' ')
		}
		c.Rend = rend
		c.SetWide(false)
		fb.SetCell(0, col, c)
	}
}
