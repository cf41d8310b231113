package overlay

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/terminal"
)

func TestNoBannerWhileHealthy(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	n := NewNotificationEngine(clk)
	n.ServerHeard()
	clk.RunFor(3 * time.Second)
	fb := terminal.NewFramebuffer(40, 5)
	c := fb.Cell(0, 0)
	c.SetRune('x')
	fb.SetCell(0, 0, c)
	n.Apply(fb)
	if fb.Cell(0, 0).ContentsString() != "x" {
		t.Fatal("banner painted while connection healthy")
	}
}

func TestBannerAfterSilence(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	n := NewNotificationEngine(clk)
	n.ServerHeard()
	clk.RunFor(10 * time.Second)
	if !n.NeedsBanner() {
		t.Fatal("no banner after 10s of silence")
	}
	fb := terminal.NewFramebuffer(60, 5)
	n.Apply(fb)
	row := fb.Text(0)
	if !strings.Contains(row, "Last contact 10 seconds ago") {
		t.Fatalf("banner = %q", row)
	}
	if !fb.Cell(0, 1).Rend.Has(terminal.AttrInverse) {
		t.Fatal("banner not inverse video")
	}
}

func TestBannerUnitsScale(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	n := NewNotificationEngine(clk)
	n.ServerHeard()
	clk.RunFor(5 * time.Minute)
	fb := terminal.NewFramebuffer(60, 5)
	n.Apply(fb)
	if !strings.Contains(fb.Text(0), "5 minutes") {
		t.Fatalf("banner = %q", fb.Text(0))
	}
	clk.RunFor(3 * time.Hour)
	fb2 := terminal.NewFramebuffer(60, 5)
	n.Apply(fb2)
	if !strings.Contains(fb2.Text(0), "hours") {
		t.Fatalf("banner = %q", fb2.Text(0))
	}
}

func TestBannerMessageOnly(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	n := NewNotificationEngine(clk)
	n.Message = "connecting..."
	fb := terminal.NewFramebuffer(60, 5)
	n.Apply(fb)
	if !strings.Contains(fb.Text(0), "mosh: connecting...") {
		t.Fatalf("banner = %q", fb.Text(0))
	}
}

func TestBannerNeverHeard(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	n := NewNotificationEngine(clk)
	if n.NeedsBanner() {
		t.Fatal("banner before any contact and without a message")
	}
}
