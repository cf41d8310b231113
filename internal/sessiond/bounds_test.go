package sessiond_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sessiond"
	"repro/internal/terminal"
)

// A client holds its session's key, so past the AEAD what it sends is still
// its to choose: a user-stream resize is two uvarints. The daemon bounds
// them where the diff is decoded, to the screen sizes a journal snapshot can
// restore, and refuses the diff otherwise — before any screen is sized.

// screenSize reads a session's live screen dimensions.
func screenSize(s *sessiond.Session) (w, h int) {
	s.Do(func(srv *core.Server) {
		fb := srv.Terminal().Framebuffer()
		w, h = fb.W, fb.H
	})
	return w, h
}

// hostileResizeWorld is three shell sessions at 80x24, each client connected
// and its first keystroke echoed.
func hostileResizeWorld(t *testing.T) *pumpedWorld {
	w := newPumpedWorld(t, sessiond.Config{Width: 80, Height: 24,
		NewApp: func(id uint64) host.App { return host.NewShell(int64(id)) }}, 3)
	for i, cl := range w.clients {
		cl.UserBytes([]byte("x"))
		w.await("first echo", func() bool { return w.shows(i, "x") })
	}
	return w
}

// TestHostileResizeCannotCrashTheDaemon: Resize(80, 1<<50), sealed with the
// session's key and handed to Daemon.HandlePacket, used to reach
// Framebuffer.Resize's make([]*Row, h) and panic in makeslice — in the
// goroutine serving every session on the host. Now the diff is malformed: the
// session it came on keeps its screen, and the others keep serving.
func TestHostileResizeCannotCrashTheDaemon(t *testing.T) {
	w := hostileResizeWorld(t)
	w.clients[0].Resize(80, 1<<50)
	w.run(300)
	if cw, ch := screenSize(w.sess[0]); cw != 80 || ch != 24 {
		t.Fatalf("the hostile session's screen is %dx%d, want 80x24", cw, ch)
	}
	w.clients[2].UserBytes([]byte("still here"))
	w.await("another session's echo", func() bool { return w.shows(2, "still here") })
}

// TestResizeBeyondSnapshotBoundIsRejected: 5000x3 fits in memory, and used
// to be applied to the live screen — whose journal snapshot then does not
// decode, so the session could not survive the restart the journal exists
// for. Past terminal.MaxDim a resize is refused like any malformed diff.
func TestResizeBeyondSnapshotBoundIsRejected(t *testing.T) {
	w := hostileResizeWorld(t)
	w.clients[1].Resize(5000, 3)
	w.run(300)
	if cw, ch := screenSize(w.sess[1]); cw != 80 || ch != 24 {
		t.Fatalf("a 5000x3 resize left the screen %dx%d, want it refused at 80x24", cw, ch)
	}
	// The bound itself is a screen.
	w.clients[2].Resize(terminal.MaxDim, 3)
	w.await("a resize to the bound", func() bool {
		cw, ch := screenSize(w.sess[2])
		return cw == terminal.MaxDim && ch == 3
	})
}

// TestAuthenticatedBadDiffIsNotAnAuthDrop: the hostile resize passed the
// AEAD — its sender holds the session key — so refusing it is not an
// authentication failure. It is counted as a bad diff, and its source is
// not charged against the quota that exists for unauthenticated floods.
func TestAuthenticatedBadDiffIsNotAnAuthDrop(t *testing.T) {
	w := hostileResizeWorld(t)
	m := w.d.Metrics()
	w.clients[0].Resize(80, 1<<50)
	w.await("the resize's first datagram", func() bool {
		return m.DropsAuth.Value()+m.DropsBadDiff.Value() > 0
	})
	if got := m.DropsAuth.Value(); got != 0 {
		t.Errorf("drops_auth = %d, want 0", got)
	}
	if got := sessiond.UnauthSources(w.d); got != 0 {
		t.Errorf("the unauth quota tracks %d sources, want 0", got)
	}
	if got := m.DropsBadDiff.Value(); got != 1 {
		t.Errorf("drops_bad_diff = %d, want 1", got)
	}
}
