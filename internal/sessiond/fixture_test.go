package sessiond_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/terminal"
)

// The journal fixture under testdata/journal-pr15 is a state directory
// written by the commit before the 12-byte cell (PR 15's tree, 24-byte
// cells with a struct of bools for renditions): one checkpoint plus one
// incremental segment of a 40x8 session whose screen holds every rendition
// attribute, default/palette/256-colour/truecolor foregrounds and
// backgrounds, wide and combining characters and a soft-wrapped line.
// Beside it sit the snapshot serialization and the full-repaint frame of
// that screen as that commit produced them. The in-memory cell layout is
// free to change; what was written with the old one must keep restoring,
// byte for byte.
const (
	fixtureDir   = "testdata/journal-pr15"
	fixtureSnap  = "testdata/journal-pr15.snapshot"
	fixtureFrame = "testdata/journal-pr15.frame"
)

// fixtureFirst and fixtureSecond are the host output before the checkpoint
// and between the checkpoint and the incremental flush.
const (
	fixtureFirst = "\x1b[1mbold\x1b[0m \x1b[2mfaint\x1b[0m \x1b[3mitalic\x1b[0m \x1b[4munder\x1b[0m\r\n" +
		"\x1b[5mblink\x1b[0m \x1b[7minverse\x1b[0m \x1b[8mhidden\x1b[0m \x1b[1;3;4;7mall\x1b[0m\r\n" +
		"\x1b[31mp1\x1b[37mp7\x1b[90mp8\x1b[38;5;255mp255\x1b[38;2;0;0;0mrgb0\x1b[38;2;255;255;255mrgbF\x1b[0m\r\n" +
		"\x1b[40mb0\x1b[47mb7\x1b[100mb8\x1b[48;5;255mb255\x1b[48;2;18;52;86mbrgb\x1b[K\x1b[0m\r\n" +
		"日本語 wide café \U0001f469‍\U0001f4bb zwj\r\n"
	fixtureSecond = "\x1b[32;44mthis line is long enough to soft-wrap at the fortieth column\x1b[0m\r\n" +
		"\x1b]2;fixture title\a\x1b[4;38;2;1;2;3mtail\x1b[0m"
)

func fixtureConfig(sched *simclock.Scheduler, dir string) sessiond.Config {
	return sessiond.Config{
		Clock:       sched,
		Send:        func(netem.Addr, []byte) {},
		IdleTimeout: -1,
		StateDir:    dir,
		Width:       40,
		Height:      8,
	}
}

// TestRestoreParentJournalFixture restores the committed state directory
// and checks the screen that comes back against what its writer saw.
// MOSH_WRITE_JOURNAL_FIXTURE=1 regenerates the fixture instead (only
// meaningful on the commit the fixture is named after).
func TestRestoreParentJournalFixture(t *testing.T) {
	sched := simclock.NewScheduler(epoch)
	if os.Getenv("MOSH_WRITE_JOURNAL_FIXTURE") != "" {
		writeJournalFixture(t, sched)
		return
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixtureDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	d, err := sessiond.New(fixtureConfig(sched, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sessions := d.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("restored %d sessions from the fixture, want 1", len(sessions))
	}
	wantSnap, err := os.ReadFile(fixtureSnap)
	if err != nil {
		t.Fatal(err)
	}
	wantFrame, err := os.ReadFile(fixtureFrame)
	if err != nil {
		t.Fatal(err)
	}
	sessions[0].Do(func(srv *core.Server) {
		fb := srv.Terminal().Framebuffer()
		if got := fb.AppendSnapshot(nil); !bytes.Equal(got, wantSnap) {
			t.Errorf("restored screen serializes to %d bytes that differ from the writer's %d", len(got), len(wantSnap))
		}
		if got := terminal.NewFrame(false, nil, fb); !bytes.Equal(got, wantFrame) {
			t.Errorf("restored screen repaints as\n%q\nthe writer's repainted as\n%q", got, wantFrame)
		}
		if fb.Title != "fixture title" || !fb.Cell(4, 0).Wide() || !fb.Cell(5, 39).Wrapped() {
			t.Errorf("restored screen lost its title (%q), a wide cell or the soft wrap", fb.Title)
		}
	})
}

func writeJournalFixture(t *testing.T, sched *simclock.Scheduler) {
	if err := os.RemoveAll(fixtureDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := sessiond.New(fixtureConfig(sched, fixtureDir))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	var snap, frame []byte
	for _, out := range []string{fixtureFirst, fixtureSecond} {
		sess.Do(func(srv *core.Server) { srv.HostOutput([]byte(out)) })
		sched.RunFor(time.Second)
		if err := d.FlushJournal(); err != nil {
			t.Fatal(err)
		}
	}
	sess.Do(func(srv *core.Server) {
		fb := srv.Terminal().Framebuffer()
		snap = fb.AppendSnapshot(nil)
		frame = terminal.NewFrame(false, nil, fb)
	})
	// No d.Close(): a clean shutdown compacts; the fixture is what a crash
	// leaves behind, checkpoint and segment both.
	if err := os.WriteFile(fixtureSnap, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixtureFrame, frame, 0o644); err != nil {
		t.Fatal(err)
	}
}
