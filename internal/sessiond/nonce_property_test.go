package sessiond_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

// TestNoncePropertyAcrossCrashPoints is the crash-point property test for
// the two-phase counter reservation: for EVERY prefix of journal flushes,
// restoring from that prefix's journal yields per-session counters that
// strictly exceed every nonce (and state number) the live daemon had put
// on the wire at any moment while that journal was the newest durable one.
// A crash anywhere in the timeline therefore can never reseal a nonce.
//
// The test deliberately starves the reservation (SeqReserve far below the
// traffic volume) so the ceiling actually binds between flushes: sends are
// suppressed rather than ever crossing the journaled reservation.
func TestNoncePropertyAcrossCrashPoints(t *testing.T) {
	const (
		nSessions = 3
		reserve   = 64
		nFlushes  = 8
	)
	sched := simclock.NewScheduler(epoch)
	nw := netem.NewNetwork(sched)
	daemonAddr := netem.Addr{Host: 0xCAFE, Port: 60001}
	paths := make(map[netem.Addr]*netem.Path)

	// cumMax tracks, per session, the highest server→client sequence
	// number (nonce) observed on the wire so far.
	cumMax := make(map[uint64]uint64)
	dir := t.TempDir()
	cfg := sessiond.Config{
		Clock: sched,
		Send: func(dst netem.Addr, wire []byte) {
			id, inner, err := network.ParseEnvelope(wire)
			if err != nil {
				t.Fatalf("unparseable daemon datagram: %v", err)
			}
			_, seq, _, err := sspcrypto.ParseSeqHeader(inner)
			if err != nil {
				t.Fatalf("unparseable daemon datagram: %v", err)
			}
			if seq > cumMax[id] {
				cumMax[id] = seq
			}
			if p := paths[dst]; p != nil {
				p.Down.Send(netem.Packet{Src: daemonAddr, Dst: dst, Payload: wire})
			}
		},
		NewApp:      shellApp,
		IdleTimeout: -1,
		StateDir:    dir,
		SeqReserve:  reserve,
	}
	// A tiny compaction floor makes the timeline alternate between
	// compacted checkpoints and incremental segment tails, so the
	// crash-point property is exercised across both journal shapes —
	// including crashes landing mid-compaction.
	tinyFloor := sessiond.JournalCompactMinBytes(1)
	d, err := sessiond.NewWithLimits(cfg, tinyFloor)
	if err != nil {
		t.Fatal(err)
	}
	wake := d.Pump(sched)
	nw.Attach(daemonAddr, func(p netem.Packet) {
		d.HandlePacket(p.Payload, p.Src)
		wake()
	})

	type cl struct {
		c  *core.Client
		id uint64
		w  func()
	}
	var clients []*cl
	for i := 0; i < nSessions; i++ {
		sess, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		addr := netem.Addr{Host: uint32(500 + i), Port: 9000}
		path := netem.NewPath(nw, lan(), int64(31+i))
		paths[addr] = path
		c := &cl{id: sess.ID}
		c.c, err = core.NewClient(core.ClientConfig{
			Key:         sess.Key(),
			Clock:       sched,
			Envelope:    &network.Envelope{ID: sess.ID},
			Predictions: overlay.Never,
			Emit: func(wire []byte) {
				path.Up.Send(netem.Packet{Src: addr, Dst: daemonAddr, Payload: wire})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.w = core.Pump(sched, c.c)
		cc := c
		nw.Attach(addr, func(p netem.Packet) {
			cc.c.Receive(p.Payload, p.Src)
			cc.w()
		})
		clients = append(clients, c)
	}

	liveCounters := func() (seqHW, numHW map[uint64]uint64) {
		seqHW, numHW = make(map[uint64]uint64), make(map[uint64]uint64)
		for _, c := range clients {
			sess := d.Lookup(c.id)
			sess.Do(func(srv *core.Server) {
				seqHW[c.id] = srv.Transport().Connection().NextSeq()
				numHW[c.id] = srv.Transport().Sender().NumHighWater()
			})
		}
		return seqHW, numHW
	}

	// Timeline: type with ENTER floods (heavy frame traffic), flushing the
	// journal every so often and copying the durable state — the checkpoint
	// AND its segment tail, the whole directory — after each flush.
	snapshotDir := func() map[string][]byte {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string][]byte, len(ents))
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m[e.Name()] = data
		}
		return m
	}
	// newestFile names the artifact written LAST in a snapshot: a
	// checkpoint deletes every segment of the epoch before it, so any
	// surviving segment postdates the checkpoint and the highest
	// (epoch, seq) segment is the newest write; with no segments the
	// checkpoint itself was the final write. A power cut tears the newest
	// write, so that is the file the torn property truncates.
	newestFile := func(snap map[string][]byte) string {
		best, bestEpoch, bestSeq := "", uint64(0), uint64(0)
		for name := range snap {
			if !strings.HasPrefix(name, "sessions.journal.seg.") {
				continue
			}
			rest := name[len("sessions.journal.seg."):]
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				continue
			}
			ep, err1 := strconv.ParseUint(rest[:dot], 10, 64)
			sq, err2 := strconv.ParseUint(rest[dot+1:], 10, 64)
			if err1 != nil || err2 != nil {
				continue
			}
			if best == "" || ep > bestEpoch || (ep == bestEpoch && sq > bestSeq) {
				best, bestEpoch, bestSeq = name, ep, sq
			}
		}
		if best == "" {
			return "sessions.journal"
		}
		return best
	}
	writeSnapshot := func(rdir string, snap map[string][]byte, tear string, n int) {
		for name, data := range snap {
			if name == tear {
				data = data[:n]
			}
			if err := os.WriteFile(filepath.Join(rdir, name), data, 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snapshots []map[string][]byte
	var liveSeqAtFlush, liveNumAtFlush []map[uint64]uint64
	var wireMaxAtFlush []map[uint64]uint64
	snapWireMax := func() map[uint64]uint64 {
		m := make(map[uint64]uint64, len(cumMax))
		for k, v := range cumMax {
			m[k] = v
		}
		return m
	}
	for f := 0; f < nFlushes; f++ {
		for k := 0; k < 6; k++ {
			for _, c := range clients {
				c.c.UserBytes([]byte{'\r'})
				c.w()
			}
			sched.RunFor(130 * time.Millisecond)
		}
		// Sample the live high-water marks and the wire maxima just before
		// the flush completes: every send while the PREVIOUS journal was
		// newest-durable is bounded by these.
		seqHW, numHW := liveCounters()
		liveSeqAtFlush = append(liveSeqAtFlush, seqHW)
		liveNumAtFlush = append(liveNumAtFlush, numHW)
		wireMaxAtFlush = append(wireMaxAtFlush, snapWireMax())
		if err := d.FlushJournal(); err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, snapshotDir())
	}

	// Starvation phase: keep typing with no flush at all, so the last
	// reservation binds. Suppression — not overshoot — must be the result.
	for k := 0; k < 120; k++ {
		for _, c := range clients {
			c.c.UserBytes([]byte{'\r'})
			c.w()
		}
		sched.RunFor(60 * time.Millisecond)
	}
	finalSeq, finalNum := liveCounters()
	finalWire := snapWireMax()
	suppressed := 0
	remainingZero := false
	for _, c := range clients {
		d.Lookup(c.id).Do(func(srv *core.Server) {
			suppressed += srv.Transport().Sender().Stats().Suppressed
			if srv.Transport().Connection().SeqRemaining() == 0 {
				remainingZero = true
			}
		})
	}
	if suppressed == 0 || !remainingZero {
		t.Fatalf("starvation phase did not bind the reservation (suppressed=%d remainingZero=%v)", suppressed, remainingZero)
	}

	// restoredCounters restores a daemon from journal snapshot i (in a
	// scratch directory) and reads each session's restored counters.
	restoredCounters := func(snap map[string][]byte) (seq, num map[uint64]uint64) {
		rdir := t.TempDir()
		writeSnapshot(rdir, snap, "", 0)
		rcfg := cfg
		rcfg.StateDir = rdir
		rcfg.Send = func(netem.Addr, []byte) {}
		rd, err := sessiond.NewWithLimits(rcfg, tinyFloor)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		seq, num = make(map[uint64]uint64), make(map[uint64]uint64)
		for _, c := range clients {
			sess := rd.Lookup(c.id)
			if sess == nil {
				t.Fatalf("session %d missing from restored snapshot", c.id)
			}
			sess.Do(func(srv *core.Server) {
				seq[c.id] = srv.Transport().Connection().NextSeq()
				num[c.id] = srv.Transport().Sender().NumHighWater()
			})
		}
		return seq, num
	}

	// boundsFor(i): while journal i was the newest durable one (from its
	// completion until journal i+1 completed — or forever, for the last),
	// every wire nonce and live counter stayed below these.
	boundsFor := func(i int) (seq, num, wire map[uint64]uint64) {
		if i+1 < len(snapshots) {
			return liveSeqAtFlush[i+1], liveNumAtFlush[i+1], wireMaxAtFlush[i+1]
		}
		return finalSeq, finalNum, finalWire
	}

	// The property, for every crash point: restoring journal i yields
	// counters that strictly exceed every wire nonce sealed while it was
	// newest-durable, and at least match the live counters.
	for i, snap := range snapshots {
		rseq, rnum := restoredCounters(snap)
		boundSeq, boundNum, boundWire := boundsFor(i)
		for _, c := range clients {
			if w, ok := boundWire[c.id]; ok && rseq[c.id] <= w {
				t.Errorf("flush %d session %d: restored NextSeq %d does not exceed wire nonce %d", i, c.id, rseq[c.id], w)
			}
			if rseq[c.id] < boundSeq[c.id] {
				t.Errorf("flush %d session %d: restored NextSeq %d below live next-seq %d", i, c.id, rseq[c.id], boundSeq[c.id])
			}
			if rnum[c.id] < boundNum[c.id] {
				t.Errorf("flush %d session %d: restored state-num floor %d below live high water %d", i, c.id, rnum[c.id], boundNum[c.id])
			}
		}
	}

	// The TORN property: a power cut during the newest write can leave ANY
	// prefix of that file on disk — a checkpoint torn mid-rename, or an
	// appended segment torn mid-write — with every older artifact intact.
	// For a dense sample of truncation points, booting from the damaged
	// directory must succeed (a torn header degrades to a partial or empty
	// restore, never a dead daemon) and must revive ONLY sessions whose
	// counters still clear every sealed nonce — losing a session is safe,
	// resealing a nonce is not.
	restoredPartial := func(snap map[string][]byte, tear string, n int) (seq, num map[uint64]uint64, restored int) {
		rdir := t.TempDir()
		writeSnapshot(rdir, snap, tear, n)
		rcfg := cfg
		rcfg.StateDir = rdir
		rcfg.Send = func(netem.Addr, []byte) {}
		rd, err := sessiond.NewWithLimits(rcfg, tinyFloor)
		if err != nil {
			t.Fatalf("daemon refused to boot with %s torn at %d bytes: %v", tear, n, err)
		}
		defer rd.Close()
		seq, num = make(map[uint64]uint64), make(map[uint64]uint64)
		for _, c := range clients {
			sess := rd.Lookup(c.id)
			if sess == nil {
				continue // torn away — safe loss
			}
			restored++
			sess.Do(func(srv *core.Server) {
				seq[c.id] = srv.Transport().Connection().NextSeq()
				num[c.id] = srv.Transport().Sender().NumHighWater()
			})
		}
		return seq, num, restored
	}
	fullRestores, tornBoots := 0, 0
	tornCheckpoints, tornSegments := 0, 0
	segmentsOf := func(snap map[string][]byte) map[string][]byte {
		m := map[string][]byte{}
		for name, data := range snap {
			if strings.HasPrefix(name, "sessions.journal.seg.") {
				m[name] = data
			}
		}
		return m
	}
	for i, snap := range snapshots {
		// Bounds are timeline-dependent. A PARTIAL cut of flush i's file
		// means the daemon died while that write was in flight: phase two
		// never ran, ceilings never rose, so everything sealed by then is
		// bounded by the reservations already durable BEFORE flush i — the
		// samples taken just before it. Sessions the tear reverts to an
		// older record therefore still clear every sealed nonce. The
		// UNTORN cut means flush i completed and period i's traffic ran
		// under its reservations, so the stronger period-i bounds apply.
		crashSeq, crashNum, crashWire := liveSeqAtFlush[i], liveNumAtFlush[i], wireMaxAtFlush[i]
		fullSeq, fullNum, fullWire := boundsFor(i)
		tear := newestFile(snap)
		dirs := []map[string][]byte{snap}
		if tear == "sessions.journal" {
			tornCheckpoints++
			// Mid-compaction crash: the compacted checkpoint lands (whole
			// or torn) while the superseded epoch's segment tail is still
			// on disk — the window between the checkpoint rename and the
			// stale-segment deletes.
			if i > 0 {
				if stale := segmentsOf(snapshots[i-1]); len(stale) > 0 {
					combo := make(map[string][]byte, len(stale)+1)
					for name, data := range stale {
						combo[name] = data
					}
					combo["sessions.journal"] = snap["sessions.journal"]
					dirs = append(dirs, combo)
				}
			}
		} else {
			tornSegments++
		}
		for _, sdir := range dirs {
			data := sdir[tear]
			step := 1 + len(data)/48
			cuts := []int{len(data)} // always include the untorn file
			for n := 0; n < len(data); n += step {
				cuts = append(cuts, n)
			}
			for _, n := range cuts {
				rseq, rnum, restored := restoredPartial(sdir, tear, n)
				tornBoots++
				if restored == nSessions {
					fullRestores++
				}
				boundSeq, boundNum, boundWire := crashSeq, crashNum, crashWire
				if n == len(data) {
					boundSeq, boundNum, boundWire = fullSeq, fullNum, fullWire
				}
				for _, c := range clients {
					got, ok := rseq[c.id]
					if !ok {
						continue
					}
					if w, okw := boundWire[c.id]; okw && got <= w {
						t.Errorf("flush %d torn at %d, session %d: restored NextSeq %d does not exceed wire nonce %d", i, n, c.id, got, w)
					}
					if got < boundSeq[c.id] {
						t.Errorf("flush %d torn at %d, session %d: restored NextSeq %d below live next-seq %d", i, n, c.id, got, boundSeq[c.id])
					}
					if rnum[c.id] < boundNum[c.id] {
						t.Errorf("flush %d torn at %d, session %d: restored state-num floor %d below live high water %d", i, n, c.id, rnum[c.id], boundNum[c.id])
					}
				}
			}
		}
	}
	if fullRestores == 0 {
		t.Fatal("no truncation point exercised a complete restore — sampling too coarse")
	}
	t.Logf("torn-journal boots: %d (%d restored all %d sessions; %d flushes ended in a checkpoint, %d in a segment)",
		tornBoots, fullRestores, nSessions, tornCheckpoints, tornSegments)

	// The READ-FAULT property: every file of crash point i is whole, but
	// the restoring boot cannot read the directory listing, or one of the
	// segments. A boot that shrugged the error off would restore the
	// checkpoint without (all of) its tail — counters from before traffic
	// that did reach the wire. The boot may be refused, or lose sessions;
	// any session it does revive must clear the same bounds an undamaged
	// restore of crash point i does.
	readFaultBoots, refused := 0, 0
	for i, snap := range snapshots {
		boundSeq, boundNum, boundWire := boundsFor(i)
		faults := map[string]func(op faultinject.Op, path string) bool{
			"readdir": func(op faultinject.Op, _ string) bool { return op == faultinject.OpReadDir },
		}
		for name := range segmentsOf(snap) {
			faults["read "+name] = func(op faultinject.Op, path string) bool {
				return op == faultinject.OpRead && filepath.Base(path) == name
			}
		}
		for label, hit := range faults {
			rdir := t.TempDir()
			writeSnapshot(rdir, snap, "", 0)
			ffs := faultinject.NewFaultFS(nil, 1)
			ffs.SetOpHook(func(op faultinject.Op, path string) error {
				if hit(op, path) {
					return faultinject.ErrEIO
				}
				return nil
			})
			rcfg := cfg
			rcfg.StateDir, rcfg.FS = rdir, ffs
			rcfg.Send = func(netem.Addr, []byte) {}
			readFaultBoots++
			rd, err := sessiond.NewWithLimits(rcfg, tinyFloor)
			if err != nil {
				refused++ // the operator retries the boot
				continue
			}
			for _, c := range clients {
				sess := rd.Lookup(c.id)
				if sess == nil {
					continue // safe loss
				}
				sess.Do(func(srv *core.Server) {
					seq, num := srv.Transport().Connection().NextSeq(), srv.Transport().Sender().NumHighWater()
					if w, ok := boundWire[c.id]; (ok && seq <= w) || seq < boundSeq[c.id] || num < boundNum[c.id] {
						t.Errorf("flush %d, %s failing, session %d: restored NextSeq %d / state-num floor %d below wire nonce %d, live next-seq %d, live high water %d",
							i, label, c.id, seq, num, w, boundSeq[c.id], boundNum[c.id])
					}
				})
			}
			rd.Close()
		}
	}
	t.Logf("read-fault boots: %d (%d refused)", readFaultBoots, refused)
}
