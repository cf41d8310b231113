package sessiond_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/terminal"
)

// This file is the restart/roam/loss torture suite for crash-safe session
// resumption: the same 50-session workload runs once uninterrupted and
// once with the daemon serialized, killed, and restored mid-traffic (with
// a roaming cohort and a lossy cohort layered on top). After resumption,
// every client's converged screens must be byte-identical to the
// uninterrupted baseline, and no AES-OCB nonce may ever be sealed twice
// within a (session, direction) across the restart.

// nonceKey identifies one sealed datagram's nonce.
type nonceKey struct {
	id  uint64
	dir sspcrypto.Direction
	seq uint64
}

// recordNonce parses the cleartext envelope + sequence header of a wire
// datagram and counts its nonce.
func recordNonce(t *testing.T, seen map[nonceKey]int, wire []byte) {
	t.Helper()
	id, inner, err := network.ParseEnvelope(wire)
	if err != nil {
		t.Fatalf("unparseable wire datagram: %v", err)
	}
	dir, seq, _, err := sspcrypto.ParseSeqHeader(inner)
	if err != nil {
		t.Fatalf("unparseable wire datagram: %v", err)
	}
	seen[nonceKey{id: id, dir: dir, seq: seq}]++
}

// maskedScreen serializes a framebuffer for cross-run comparison. EchoAck
// is masked (it encodes transport state numbers, which legitimately depend
// on frame batching and therefore on restart timing).
func maskedScreen(fb *terminal.Framebuffer) string {
	c := fb.Clone()
	c.EchoAck = 0
	return string(c.AppendSnapshot(nil))
}

// tortureScenario drives the workload and returns the per-checkpoint,
// per-session screen serializations.
func tortureScenario(t *testing.T, restart bool) [][]string {
	t.Helper()
	const (
		nSessions = 50
		nKeys     = 24
		interval  = 150 * time.Millisecond
		burst1    = 12 // keys typed before the restart point
		burst2    = 18 // keys typed before the first checkpoint
		outage    = 120 * time.Millisecond
	)

	sched := simclock.NewScheduler(epoch)
	nw := netem.NewNetwork(sched)
	daemonAddr := netem.Addr{Host: 0xBEEF, Port: 60001}
	paths := make(map[netem.Addr]*netem.Path)
	nonces := make(map[nonceKey]int)

	// Applications live OUTSIDE the daemon (they model ptys that survive a
	// frontend restart); the restored daemon reattaches them.
	apps := make(map[uint64]host.App)
	cfg := sessiond.Config{
		Clock: sched,
		Send: func(dst netem.Addr, wire []byte) {
			recordNonce(t, nonces, wire)
			if p := paths[dst]; p != nil {
				p.Down.Send(netem.Packet{Src: daemonAddr, Dst: dst, Payload: wire})
			}
		},
		NewApp: func(id uint64) host.App {
			if a, ok := apps[id]; ok {
				return a
			}
			a := host.NewShell(int64(id))
			apps[id] = a
			return a
		},
		IdleTimeout: -1,
	}
	if restart {
		cfg.StateDir = t.TempDir()
	}
	d, err := sessiond.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(dm *sessiond.Daemon) {
		wake := dm.Pump(sched)
		nw.Attach(daemonAddr, func(p netem.Packet) {
			dm.HandlePacket(p.Payload, p.Src)
			wake()
		})
	}
	attach(d)

	type client struct {
		cl   *core.Client
		wake func()
		addr netem.Addr
		path *netem.Path
		id   uint64
	}
	clients := make([]*client, nSessions)
	for i := 0; i < nSessions; i++ {
		sess, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		params := lan()
		if i%3 == 1 {
			params.LossProb = 0.02 // lossy cohort
		}
		c := &client{addr: netem.Addr{Host: uint32(100 + i), Port: 9000}, id: sess.ID}
		c.path = netem.NewPath(nw, params, 7919*int64(i+1))
		paths[c.addr] = c.path
		c.cl, err = core.NewClient(core.ClientConfig{
			Key:         sess.Key(),
			Clock:       sched,
			Envelope:    &network.Envelope{ID: sess.ID},
			Predictions: overlay.Never,
			Emit: func(wire []byte) {
				recordNonce(t, nonces, wire)
				c.path.Up.Send(netem.Packet{Src: c.addr, Dst: daemonAddr, Payload: wire})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.wake = core.Pump(sched, c.cl)
		nw.Attach(c.addr, func(p netem.Packet) {
			c.cl.Receive(p.Payload, p.Src)
			c.wake()
		})
		clients[i] = c
	}

	// Key scripts: most sessions type text with a couple of commands; the
	// i%5==4 cohort hammers ENTER so command output scrolls the screen.
	script := func(i, k int) byte {
		if i%5 == 4 {
			return '\r'
		}
		return "abcdefg\rhijk\rmnopqrstuvw"[k]
	}
	typeKey := func(k int) {
		for i, c := range clients {
			c.cl.UserBytes([]byte{script(i, k)})
			c.wake()
		}
		sched.RunFor(interval)
	}

	for k := 0; k < burst1; k++ {
		typeKey(k)
	}

	if restart {
		// Kill the daemon 30 ms after the last burst-1 keystroke: echoes,
		// acks, and the ENTER cohort's repaints are in flight. Close
		// performs the on-shutdown journal flush.
		sched.RunFor(30 * time.Millisecond)
		d.Close()
		sched.RunFor(outage) // packets arriving now hit the dead daemon
		d2, err := sessiond.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := d2.Metrics().SessionsRestored.Value(); got != nSessions {
			t.Fatalf("restored %d sessions, want %d", got, nSessions)
		}
		attach(d2)
		d = d2
	} else {
		sched.RunFor(30*time.Millisecond + outage)
	}

	for k := burst1; k < burst2; k++ {
		typeKey(k)
	}

	// Mid-run roaming: a third of the clients change network address —
	// in the restart run, against the restored daemon.
	roamsBefore := d.Metrics().RoamingEvents.Value()
	for i, c := range clients {
		if i%3 != 0 {
			continue
		}
		nw.Detach(c.addr)
		delete(paths, c.addr)
		c.addr = netem.Addr{Host: uint32(10000 + i), Port: 9100}
		paths[c.addr] = c.path
		cc := c
		nw.Attach(c.addr, func(p netem.Packet) {
			cc.cl.Receive(p.Payload, p.Src)
			cc.wake()
		})
	}

	converge := func(what string) {
		deadline := sched.Now().Add(30 * time.Second)
		for _, c := range clients {
			cc := c
			for {
				sess := d.Lookup(cc.id)
				if sess == nil {
					t.Fatalf("session %d vanished", cc.id)
				}
				equal := false
				sess.Do(func(srv *core.Server) {
					equal = cc.cl.ServerState().Equal(srv.Terminal().Framebuffer())
				})
				if equal {
					break
				}
				if !sched.Now().Before(deadline) {
					t.Fatalf("timeout waiting for %s: session %d never converged", what, cc.id)
				}
				sched.RunFor(5 * time.Millisecond)
			}
		}
	}
	checkpoint := func() []string {
		out := make([]string, nSessions)
		for i, c := range clients {
			sess := d.Lookup(c.id)
			var server string
			sess.Do(func(srv *core.Server) {
				server = maskedScreen(srv.Terminal().Framebuffer())
			})
			out[i] = maskedScreen(c.cl.ServerState()) + "|" + server
		}
		return out
	}

	var frames [][]string
	sched.RunFor(2 * time.Second)
	converge("checkpoint 1")
	frames = append(frames, checkpoint())

	for k := burst2; k < nKeys; k++ {
		typeKey(k)
	}
	sched.RunFor(2 * time.Second)
	converge("checkpoint 2")
	frames = append(frames, checkpoint())

	if d.Metrics().RoamingEvents.Value() <= roamsBefore {
		t.Fatal("roaming cohort produced no roaming events")
	}

	// Nonce uniqueness across the whole run, including across the restart:
	// SSP's security argument needs every (key, direction, sequence)
	// sealed at most once, ever.
	for k, n := range nonces {
		if n > 1 {
			t.Fatalf("nonce reused %d times: session %d dir %d seq %d", n, k.id, k.dir, k.seq)
		}
	}
	return frames
}

// TestRestartResumeTorture is the acceptance test for crash-safe
// resumption: 50 live sessions, daemon serialized and restored
// mid-traffic, every client resumes with byte-identical converged frames
// versus an uninterrupted baseline, with roaming and lossy cohorts layered
// on top and no nonce ever reused across the restart.
func TestRestartResumeTorture(t *testing.T) {
	baseline := tortureScenario(t, false)
	restarted := tortureScenario(t, true)
	if len(baseline) != len(restarted) {
		t.Fatalf("checkpoint count mismatch: %d vs %d", len(baseline), len(restarted))
	}
	for cp := range baseline {
		for i := range baseline[cp] {
			if baseline[cp][i] != restarted[cp][i] {
				t.Errorf("checkpoint %d session %d: screens diverged after restart (len %d vs %d)",
					cp, i, len(baseline[cp][i]), len(restarted[cp][i]))
			}
		}
	}
}

// TestRestoreStaleSnapshotEviction proves the boot path evicts sessions
// whose snapshots are idle past the eviction horizon instead of reviving
// them, while fresh sessions come back.
func TestRestoreStaleSnapshotEviction(t *testing.T) {
	sched := simclock.NewScheduler(epoch)
	dir := t.TempDir()
	cfg := sessiond.Config{
		Clock:       sched,
		Send:        func(netem.Addr, []byte) {},
		IdleTimeout: time.Hour,
		StateDir:    dir,
	}
	d, err := sessiond.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	staleSess, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	freshSess, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	// Mark the stale session as heard (only used sessions evict), then let
	// it idle past the horizon while the fresh one stays untouched (a
	// never-redeemed slot waits indefinitely).
	makeHeard(t, sched, d, staleSess)
	sched.RunFor(2 * time.Hour)
	if err := d.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	// The live daemon would also have evicted it by now; what matters here
	// is that the *snapshot* is judged stale at boot.
	d.Close()

	d2, err := sessiond.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Lookup(freshSess.ID) == nil {
		t.Fatal("fresh (never-heard) session was not restored")
	}
	if d2.Lookup(staleSess.ID) != nil {
		t.Fatal("stale session was restored despite idling past the horizon")
	}
	if got := d2.Metrics().SnapshotsStale.Value(); got < 1 {
		t.Fatalf("SnapshotsStale = %d, want >= 1", got)
	}
	// Issuance continues above every journaled ID.
	next, err := d2.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= freshSess.ID {
		t.Fatalf("post-restore session id %d not above restored id %d", next.ID, freshSess.ID)
	}
}

// makeHeard drives one authentic client packet into the session so the
// daemon considers it used.
func makeHeard(t *testing.T, sched *simclock.Scheduler, d *sessiond.Daemon, sess *sessiond.Session) {
	t.Helper()
	var wires [][]byte
	cl, err := core.NewClient(core.ClientConfig{
		Key:      sess.Key(),
		Clock:    sched,
		Envelope: &network.Envelope{ID: sess.ID},
		Emit:     func(wire []byte) { wires = append(wires, append([]byte(nil), wire...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.TypeRune('x')
	sched.RunFor(100 * time.Millisecond)
	cl.Tick()
	if len(wires) == 0 {
		t.Fatal("client emitted nothing")
	}
	for _, w := range wires {
		d.HandlePacket(w, netem.Addr{Host: 42, Port: 42})
	}
	if _, heard := heardOf(sess); !heard {
		t.Fatal("session did not hear the client")
	}
}

func heardOf(sess *sessiond.Session) (time.Time, bool) {
	var at time.Time
	var heard bool
	sess.Do(func(srv *core.Server) {
		at, heard = srv.Transport().Connection().LastHeard()
	})
	return at, heard
}
