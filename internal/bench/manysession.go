package bench

import (
	"encoding/binary"
	"expvar"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/telemetry"
	"repro/internal/terminal"
	"repro/internal/udpbatch"
)

// ManySessionOptions configures the multi-session load generator: N
// simulated Mosh clients, each behind its own emulated link, all served by
// one sessiond daemon on one socket, in deterministic virtual time. What
// the load is made of comes from its row of Loads; a run sets sizes and
// the seed.
type ManySessionOptions struct {
	// Sessions is the number of concurrent sessions (default 100).
	Sessions int
	// Keystrokes per session (default 20, capped at 60 so the echo stays
	// on the prompt line and visibility checking is exact).
	Keystrokes int
	// TypeInterval is each user's inter-keystroke gap (default 150 ms,
	// phase-shifted per session so the load spreads).
	TypeInterval time.Duration
	// Params shapes every client's link (default: 2 ms LAN).
	Params netem.LinkParams
	// Seed drives link randomness and the per-session host applications.
	Seed int64

	// cohorts is the mix sessions rotate through (default: shells).
	cohorts []cohort
	// lockstep types every session at the same instants instead of
	// phase-shifting them across the interval.
	lockstep bool
	// width and height set every screen (0: the daemon's default).
	width, height int
	// heartbeat stretches the SSP keepalive on both ends (0: the
	// transport's default).
	heartbeat time.Duration
	// lossy adds each cohort's own loss to its links.
	lossy bool
	// roam moves a third of the clients to a new address 60% through the
	// typing window.
	roam bool
	// restart kills the daemon halfway through typing (journal flush on
	// Close), restores it from the journal after a short outage with every
	// host application transplanted, and measures each session's
	// resumption: restore instant → first post-restart state accepted.
	restart bool
	// chaos runs the load under a seeded hostile-world schedule: a window
	// of drop/dup/corrupt/truncate faults on every client link in both
	// directions, a fault-injecting filesystem under the journal (healed
	// just before the restart kill so the restore stays testable), a
	// periodic journal flush pump so retry, backoff and suspension run in
	// virtual time, and a nonce audit on every datagram the daemon seals.
	chaos bool
	// chaosSeed drives the disk faults and the journal's retry jitter
	// (default: derived from Seed). The wire faults come from each path's
	// own link seed, like its loss.
	chaosSeed int64
	// unbatched runs the daemon on the one-datagram-per-syscall model (the
	// portable fallback / pre-batching baseline): ingress is handled one
	// packet at a time and write accounting is one syscall per datagram.
	// The default (false) drives the batched pipeline: whole ingress
	// batches demultiplexed at once, egress flushed through modeled
	// sendmmsg sweeps. Packet handling instants are identical in both
	// modes, so the comparison isolates syscall amortization.
	unbatched bool
	// ioModel selects which provider geometry the batched daemon's syscall
	// accounting mirrors (mmsg by default; see sessiond.IOModel). Packet
	// handling is identical in every model — per-session traffic is
	// byte-for-byte the same — so model runs differ in syscalls/pkt alone.
	ioModel sessiond.IOModel
	// captureFrames records, per session, a running hash of every server
	// state the client accepts (in order) plus the final rendered screen —
	// the equivalence tests' evidence that two runs produce byte-identical
	// per-session frame streams.
	captureFrames bool
}

// cohort is one kind of session in a many-session load.
type cohort struct {
	name string
	app  func(seed int64) host.App
	// loss is the i.i.d. loss its links add under a lossy load.
	loss float64
	// keys are the keystrokes it types, in turn.
	keys string
	// echoed cohorts echo each key onto the shell prompt row, where its
	// keystroke→visible latency is sampled.
	echoed bool
}

const letters = "abcdefghijklmnopqrstuvwxyz"

// cohorts is every kind of session: the shell alone is the uniform load,
// the first three are the mixed one, and the bulk stream is the trains
// load.
var cohorts = []cohort{
	{name: "shell", app: func(seed int64) host.App { return host.NewShell(seed) }, keys: letters, echoed: true},
	// Unicode-heavy screens exercise the grapheme intern table.
	{name: "cjk-editor", app: func(seed int64) host.App { return host.NewUnicodeEditor(seed, 80) }, loss: 0.01, keys: letters},
	// Continuous scrolling, held on space.
	{name: "log-tail", app: func(seed int64) host.App { return host.NewLogTail(seed) }, loss: 0.03, keys: " "},
	// One shared busy log feeding every viewer: each reply diff spans
	// several MTU-sized fragments, so the egress ring carries long
	// same-peer trains. Its output scrolls the prompt away, so no echo is
	// sampled.
	{name: "bulk-stream", app: func(seed int64) host.App { return host.NewBulkStream(seed, 0) }, keys: letters},
}

// Load is one many-session composition: the -exp name mosh-bench runs it
// under, the options it runs, and the invariant mosh-bench holds its result
// to (nil: none).
type Load struct {
	Name    string
	Options ManySessionOptions
	Check   func(ManySessionResult) error
}

// Loads is every many-session composition the tree runs.
var Loads = []Load{{
	Name:    "manysession",
	Options: ManySessionOptions{},
}, {
	// Latency is sampled on the shells; the editors and log tails add
	// screen-state load.
	Name:    "mixed",
	Options: ManySessionOptions{cohorts: cohorts[:3]},
}, {
	// Lossy links for the non-shell cohorts (the shells stay clean so the
	// latency percentiles stay attributable) and a third of the clients
	// roaming.
	Name:    "roam",
	Options: ManySessionOptions{cohorts: cohorts[:3], lossy: true, roam: true},
}, {
	// A mid-run kill and journal restore on top of roam.
	Name:    "torture",
	Options: ManySessionOptions{cohorts: cohorts[:3], lossy: true, roam: true, restart: true},
}, {
	// The torture under the fault schedule, held to the survivable-failure
	// contract: no nonce reuse, every session restored, nothing lost.
	Name:    "chaos",
	Options: ManySessionOptions{cohorts: cohorts[:3], lossy: true, roam: true, restart: true, chaos: true},
	Check: func(r ManySessionResult) error {
		if r.NonceViolations != 0 || r.Restored != int64(r.Sessions) || r.Lost != 0 {
			return fmt.Errorf("nonce violations=%d restored=%d/%d lost=%d",
				r.NonceViolations, r.Restored, r.Sessions, r.Lost)
		}
		return nil
	},
}, {
	// A wide dashboard-sized window: the reply diff is bounded by one
	// screenful, so a large screen is what makes each burst span many
	// fragments. Typing in lockstep makes same-instant egress sweeps carry
	// many sessions' trains at once.
	Name:    "trains",
	Options: ManySessionOptions{cohorts: cohorts[3:], lockstep: true, width: 162, height: 64},
}, {
	// The 10⁵-session regime: few keystrokes far apart and a stretched
	// heartbeat (the paper's is 3 s), so the simulated span is dominated by
	// idle virtual time, which costs nearly no wall time to skip, instead
	// of by per-packet work.
	Name:    "virtual",
	Options: ManySessionOptions{Keystrokes: 2, TypeInterval: 3 * time.Minute, heartbeat: 150 * time.Second},
	Check: func(r ManySessionResult) error {
		if r.Wall >= r.Elapsed {
			return fmt.Errorf("%v wall >= %v virtual (ratio %.2fx)",
				r.Wall.Round(time.Millisecond), r.Elapsed, r.Elapsed.Seconds()/r.Wall.Seconds())
		}
		return nil
	},
}}

// ManySessionResult aggregates the run.
type ManySessionResult struct {
	Sessions   int
	Keystrokes int // per session
	// Cohorts counts the sessions of each of the load's cohorts.
	Cohorts []CohortSize
	// Samples holds one keystroke→visible-echo latency per delivered
	// keystroke, across all sessions.
	Samples []Sample
	// Lost counts keystrokes whose echo never became visible (should be 0
	// on a loss-free link).
	Lost int
	// Elapsed is the virtual time from first keystroke to convergence.
	Elapsed time.Duration
	// Wall is the real time the simulation took (sim efficiency).
	Wall time.Duration
	// PacketsIn/Out, BytesIn/Out are daemon-side aggregate wire counters
	// over Elapsed (summed across a restart).
	PacketsIn, PacketsOut int64
	BytesIn, BytesOut     int64
	// QueueDrops counts dispatch-queue overflow drops (0 in sim mode).
	QueueDrops int64
	// Roams counts authentic source-address changes the daemon observed.
	Roams int64
	// Restarted reports whether the restart scenario ran; Restored is how
	// many sessions the second daemon revived from the journal, and
	// ResumeSamples holds one restore→first-new-state latency per session
	// that resumed within the run.
	Restarted     bool
	Restored      int64
	ResumeSamples []Sample
	// ReadCalls/WriteCalls count daemon-side socket syscalls (modeled:
	// one per batch in batched mode, one per datagram in unbatched mode);
	// SyscallsPerPacket = (ReadCalls+WriteCalls)/(PacketsIn+PacketsOut).
	ReadCalls, WriteCalls int64
	SyscallsPerPacket     float64
	// IOModel echoes the provider geometry the run's accounting mirrored.
	IOModel sessiond.IOModel
	// Batch-size distribution observed by the daemon (datagrams moved per
	// syscall; from the final daemon incarnation on restart runs).
	ReadBatchP50, ReadBatchP99   int
	WriteBatchP50, WriteBatchP99 int
	// FrameHashes (with captureFrames) holds one order-sensitive FNV-1a
	// hash per session over every accepted server state; FinalFrames holds
	// each session's converged screen render.
	FrameHashes []uint64
	FinalFrames [][]byte
	// Chaos reporting (chaos loads). NonceViolations counts sealed
	// datagrams whose (session, direction, sequence) nonce was ever seen
	// before at the daemon's Send hook (nonceAudit) — ANY value other than
	// zero is a broken crypto invariant. The wire-fault counters are
	// summed from the link stats of every path the run built, roamed-away
	// ones included, in both directions; ChaosDropped counts only paths
	// that lose nothing outside the window, so a lossy cohort's own loss
	// is not chaos. AuthDrops and JournalFlushFailures are daemon-side
	// deltas over the run; JournalSuspendedSeen reports whether the
	// disk-fault windows actually drove the journal into a suspension.
	ChaosActive          bool
	NonceViolations      int
	ChaosDropped         int64
	ChaosDuplicated      int64
	ChaosCorrupted       int64
	ChaosTruncated       int64
	AuthDrops            int64
	JournalFlushFailures int64
	JournalSuspendedSeen bool
	// Server-side telemetry (shared across a restart): per-cohort
	// keystroke→echo percentiles measured at the daemon (paper Fig. 6,
	// from the telemetry pipeline's matcher), per-stage pipeline
	// latencies, and the client-visible Fig. 6 fractions computed from
	// Samples. FlightDump is the daemon's flight-recorder dump captured
	// at run end (chaos loads only) so a failing gate can ship forensics.
	EchoCohorts               []EchoCohortStats
	StageStats                []StageStat
	ClientLe16ms, ClientLeRTT float64
	FlightDump                []byte
}

// CohortSize is how many of a load's sessions ran one cohort.
type CohortSize struct {
	Name     string
	Sessions int
}

// EchoCohortStats summarizes one cohort's server-side keystroke→echo
// distribution: how long from a keystroke's arrival at the daemon to the
// mint of the first frame delta carrying its host output.
type EchoCohortStats struct {
	Name           string
	N              int64
	P50, P99, P999 time.Duration
	// Le16ms/LeRTT are fractions of matched echoes within 16 ms and
	// within one smoothed RTT — the paper's Fig. 6 buckets.
	Le16ms, LeRTT float64
}

// StageStat summarizes one pipeline stage's latency distribution.
type StageStat struct {
	Name           string
	N              int64
	P50, P99, P999 time.Duration
}

// shellPromptLen is where the first echoed character lands on the prompt
// row of host.NewShell's screen.
const shellPromptLen = len("user@remote:~$ ")

// nonceAudit watches the datagrams a daemon seals for AES-OCB nonce reuse:
// a second datagram under one session's key, direction and sequence number.
type nonceAudit struct {
	seen map[sealedNonce]struct{}
}

// sealedNonce is one datagram's nonce under its session's key.
type sealedNonce struct {
	session uint64
	dir     sspcrypto.Direction
	seq     uint64
}

// reused records wire's nonce and reports whether it was seen before. A
// datagram whose envelope or sequence header does not parse counts as reuse
// too: an audit that cannot read a nonce cannot vouch for it.
func (a *nonceAudit) reused(wire []byte) bool {
	id, inner, err := network.ParseEnvelope(wire)
	if err != nil {
		return true
	}
	dir, seq, _, err := sspcrypto.ParseSeqHeader(inner)
	if err != nil {
		return true
	}
	if a.seen == nil {
		a.seen = make(map[sealedNonce]struct{})
	}
	n := sealedNonce{session: id, dir: dir, seq: seq}
	if _, dup := a.seen[n]; dup {
		return true
	}
	a.seen[n] = struct{}{}
	return false
}

// RunManySession drives Sessions simulated clients through one in-process
// sessiond daemon and measures per-keystroke visible latency plus
// aggregate daemon throughput. Everything runs in virtual time on one
// scheduler, so results are exactly reproducible from the seed.
func RunManySession(opt ManySessionOptions) ManySessionResult {
	if opt.Sessions <= 0 {
		opt.Sessions = 100
	}
	if opt.Keystrokes <= 0 {
		opt.Keystrokes = 20
	}
	if opt.Keystrokes > 60 {
		opt.Keystrokes = 60
	}
	if opt.TypeInterval <= 0 {
		opt.TypeInterval = 150 * time.Millisecond
	}
	if opt.Params == (netem.LinkParams{}) {
		opt.Params = netem.LinkParams{Delay: 2 * time.Millisecond, Overhead: 28}
	}
	if len(opt.cohorts) == 0 {
		opt.cohorts = cohorts[:1]
	}

	// Wall-clock measurement is the one legitimately real-time reading in
	// this file; it goes through the Real clock so the naked-time lint
	// stays clean and the intent is explicit.
	var wallClock simclock.Real
	wallStart := wallClock.Now()
	sched := simclock.NewScheduler(benchEpoch)
	nw := netem.NewNetwork(sched)
	daemonAddr := netem.Addr{Host: 0xFFFF, Port: 60001}
	paths := make(map[netem.Addr]*netem.Path, opt.Sessions)

	// Cohort assignment: session IDs are issued sequentially from 1 in
	// OpenSession order, so client i holds session ID i+1 and runs the
	// load's cohort i mod the mix's size.
	cohortOf := func(i int) int { return i % len(opt.cohorts) }

	// Chaos plumbing: a nonce audit at the daemon's Send hook (before
	// the wire, so a link's duplicates are not mistaken for daemon nonce
	// reuse) and a fault-injecting filesystem under the journal; the wire
	// faults are link parameters (see chaosOn below). The whole
	// simulation is single-threaded on the scheduler, so the audit map
	// needs no lock.
	var (
		chaosFS *faultinject.FaultFS
		audit   nonceAudit
	)
	res := ManySessionResult{Sessions: opt.Sessions, Keystrokes: opt.Keystrokes, IOModel: opt.ioModel}
	if opt.chaos {
		if opt.chaosSeed == 0 {
			opt.chaosSeed = opt.Seed + 0xC4A05
		}
		res.ChaosActive = true
	}
	deliver := func(dst netem.Addr, wire []byte) {
		if p := paths[dst]; p != nil {
			p.Down.Send(netem.Packet{Src: daemonAddr, Dst: dst, Payload: wire})
		}
	}

	// Per-cohort echo aggregation hangs off the daemon's echo matcher and
	// lives here, outside the daemon, so it spans a restart (OnEcho fires
	// under the session lock, and the simulation is single-threaded on the
	// scheduler).
	type echoAgg struct {
		hist           *telemetry.Hist
		n, le16, leRTT int64
	}
	echoAggs := make([]echoAgg, len(opt.cohorts))
	for i := range echoAggs {
		echoAggs[i].hist = telemetry.NewHist(6)
	}

	// Host applications live outside the daemon so a restart can transplant
	// them, like ptys surviving a frontend restart.
	apps := make(map[uint64]host.App, opt.Sessions)
	cfg := sessiond.Config{
		Clock: sched,
		OnEcho: func(session uint64, lat, srtt time.Duration) {
			a := &echoAggs[cohortOf(int(session)-1)]
			a.hist.Observe(int64(lat))
			a.n++
			if lat <= 16*time.Millisecond {
				a.le16++
			}
			if srtt > 0 && lat <= srtt {
				a.leRTT++
			}
		},
		Send: func(dst netem.Addr, wire []byte) {
			if !opt.chaos {
				deliver(dst, wire)
				return
			}
			if audit.reused(wire) {
				res.NonceViolations++
			}
			deliver(dst, wire)
		},
		// A restored session gets back the application that survived the
		// restart.
		NewApp: func(id uint64) host.App {
			if a, ok := apps[id]; ok {
				return a
			}
			a := opt.cohorts[cohortOf(int(id)-1)].app(opt.Seed + int64(id))
			apps[id] = a
			return a
		},
		IdleTimeout: -1,
		IOModel:     opt.ioModel,
		Width:       opt.width,
		Height:      opt.height,
	}
	if opt.unbatched {
		cfg.IOModel = sessiond.IOModelLoop
	}
	// A stretched heartbeat applies on both ends, so the long idle
	// stretches between keystrokes stay idle on the wire too: per-session
	// heartbeat exchanges, not simulated idle time, are what cost wall
	// clock at 10⁵ sessions.
	cfg.Timing.HeartbeatInterval = opt.heartbeat
	if opt.restart {
		stateDir, err := os.MkdirTemp("", "mosh-bench-journal-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(stateDir)
		cfg.StateDir = stateDir
		if opt.chaos {
			// A hostile disk under the journal, with a tight retry/suspend
			// schedule so backoff, suspension, and resume all fit inside
			// the run's fault windows. The small SeqReserve makes the
			// two-phase reservation actually bind under disk failure.
			chaosFS = faultinject.NewFaultFS(nil, opt.chaosSeed+2)
			cfg.FS = chaosFS
			cfg.FaultSeed = opt.chaosSeed + 3
			cfg.JournalRetryMin = 40 * time.Millisecond
			cfg.JournalRetryMax = 400 * time.Millisecond
			cfg.JournalSuspendAfter = 3
			cfg.SeqReserve = 512
		}
	}
	d, err := sessiond.New(cfg)
	if err != nil {
		panic(err)
	}
	wakeDaemon := d.Pump(sched)
	// The daemon's "socket": a coalescing sink collects every same-instant
	// arrival (clustered by the ingress links' delivery quantum, the way a
	// busy reader finds the kernel queue on wakeup) and hands the daemon
	// the whole batch. The batched mode demultiplexes it in one sweep
	// (HandleBatch); the unbatched baseline handles the identical packets
	// at the identical instants one syscall-equivalent at a time, so the
	// two modes differ only in syscall amortization. d and wakeDaemon are
	// rebound when the restart scenario swaps in the restored daemon;
	// in-flight packets follow automatically.
	var ingressScratch []udpbatch.Message
	netem.NewBatchSink(nw, daemonAddr, func(pkts []netem.Packet) {
		if opt.unbatched {
			for _, p := range pkts {
				d.HandlePacket(p.Payload, p.Src)
			}
		} else {
			msgs := ingressScratch[:0]
			for _, p := range pkts {
				msgs = append(msgs, udpbatch.Message{Buf: p.Payload, Addr: p.Src})
			}
			ingressScratch = msgs[:0]
			d.HandleBatch(msgs)
		}
		wakeDaemon()
	})

	type pendingKey struct {
		col  int
		char byte
		at   time.Time
	}
	type loadClient struct {
		cl      *core.Client
		wake    func()
		pending []pendingKey
		typed   int
		cohort  int
		addr    netem.Addr
		path    *netem.Path
		// Resumption-latency tracking (restart scenario): preNum is the
		// newest server state at restore time; the first state beyond it
		// is the resume repaint.
		preNum   uint64
		resumeAt time.Time
		receive  func(p netem.Packet)
		// Frame-stream capture (captureFrames): an order-sensitive hash
		// over every accepted server state.
		frameNum  uint64
		frameHash hash.Hash64
	}
	clients := make([]*loadClient, opt.Sessions)

	// cohortParams adds a cohort's own loss to its links under a lossy load.
	cohortParams := func(cohort int) netem.LinkParams {
		p := opt.Params
		if opt.lossy {
			p.LossProb += opt.cohorts[cohort].loss
		}
		return p
	}
	// The chaos window's wire faults, added to a cohort's params on every
	// live path while chaosOn holds. Each link draws them from its own
	// rng, so a fault lands on the nth datagram of its path whatever the
	// other sessions send.
	chaosOn := false
	linkParams := func(cohort int) netem.LinkParams {
		p := cohortParams(cohort)
		if chaosOn {
			p.LossProb += 0.02
			p.DupProb, p.CorruptProb, p.TruncProb = 0.02, 0.01, 0.01
		}
		return p
	}
	// ingressQuantum models receive-side interrupt coalescing on the
	// daemon's ingress path: arrivals are clustered onto quantum
	// boundaries, exactly as a NIC+epoll loop hands a busy process
	// everything since its last wakeup. It applies to every IO model, so
	// latency percentiles stay directly comparable.
	const ingressQuantum = time.Millisecond
	// newClientPath builds one client's link pair: the uplink carries the
	// daemon-side delivery quantum (receive coalescing at the shared
	// socket), the downlink delivers exactly (clients are one-session
	// processes; their read syscalls are not what this bench scales).
	// Seed handling matches netem.NewPath, keeping runs comparable.
	type builtPath struct {
		cohort int
		path   *netem.Path
	}
	var built []builtPath // every path the run made, for the chaos counters
	upParams := func(cohort int) netem.LinkParams {
		up := linkParams(cohort)
		up.DeliveryQuantum = ingressQuantum
		return up
	}
	newClientPath := func(cohort int, seed int64) *netem.Path {
		p := netem.NewAsymmetricPath(nw, upParams(cohort), linkParams(cohort), seed)
		built = append(built, builtPath{cohort, p})
		return p
	}

	for _, c := range opt.cohorts {
		res.Cohorts = append(res.Cohorts, CohortSize{Name: c.name})
	}
	for i := 0; i < opt.Sessions; i++ {
		res.Cohorts[cohortOf(i)].Sessions++
		sess, err := d.OpenSession()
		if err != nil {
			panic(err)
		}
		lc := &loadClient{cohort: cohortOf(i)}
		if opt.captureFrames {
			lc.frameHash = fnv.New64a()
		}
		lc.addr = netem.Addr{Host: uint32(1 + i), Port: uint16(1000 + i%60000)}
		lc.path = newClientPath(lc.cohort, opt.Seed+int64(i)*7919)
		paths[lc.addr] = lc.path
		lc.cl, err = core.NewClient(core.ClientConfig{
			Key:         sess.Key(),
			Clock:       sched,
			Timing:      cfg.Timing,
			Envelope:    &network.Envelope{ID: sess.ID},
			Width:       cfg.Width,
			Height:      cfg.Height,
			Predictions: overlay.Never,
			Emit: func(wire []byte) {
				lc.path.Up.Send(netem.Packet{Src: lc.addr, Dst: daemonAddr, Payload: wire})
			},
		})
		if err != nil {
			panic(err)
		}
		lc.wake = core.Pump(sched, lc.cl)
		clients[i] = lc
		receive := func(p netem.Packet) {
			lc.cl.Receive(p.Payload, p.Src)
			now := sched.Now()
			if lc.frameHash != nil {
				if num := lc.cl.Transport().RemoteStateNum(); num > lc.frameNum {
					lc.frameNum = num
					var numBuf [8]byte
					binary.BigEndian.PutUint64(numBuf[:], num)
					lc.frameHash.Write(numBuf[:])
					lc.frameHash.Write(terminal.NewFrame(false, nil, lc.cl.ServerState()))
				}
			}
			if !lc.resumeAt.IsZero() && lc.cl.Transport().RemoteStateNum() > lc.preNum {
				res.ResumeSamples = append(res.ResumeSamples, Sample{Latency: now.Sub(lc.resumeAt)})
				lc.resumeAt = time.Time{}
			}
			// Visibility check (echoed cohorts only — the echo position is
			// exact): a keystroke's echo is the cell the shell echoes it
			// into on the prompt row.
			fb := lc.cl.ServerState()
			for len(lc.pending) > 0 {
				k := lc.pending[0]
				if k.col >= fb.W || fb.Cell(0, k.col).ContentsString() != string(rune(k.char)) {
					break
				}
				var rtt time.Duration
				if conn := lc.cl.Transport().Connection(); conn.HaveRTT() {
					rtt = conn.SRTT(0)
				}
				res.Samples = append(res.Samples, Sample{Latency: now.Sub(k.at), RTT: rtt})
				lc.pending = lc.pending[1:]
			}
			lc.wake()
		}
		lc.receive = receive
		nw.Attach(lc.addr, receive)
	}

	// Connection warmup: clients introduce themselves, RTT estimators
	// settle, before the measured window opens.
	sched.RunFor(2 * time.Second)
	// Wire counters accumulate across a daemon restart: rebase notes the
	// current daemon's counters, and harvest folds its deltas since then
	// into the result.
	type tally struct {
		c   *expvar.Int
		sum *int64
	}
	tallies := func() []tally {
		m := d.Metrics()
		return []tally{
			{&m.PacketsIn, &res.PacketsIn}, {&m.PacketsOut, &res.PacketsOut},
			{&m.BytesIn, &res.BytesIn}, {&m.BytesOut, &res.BytesOut},
			{&m.DropsQueueFull, &res.QueueDrops}, {&m.RoamingEvents, &res.Roams},
			{&m.ReadBatchCalls, &res.ReadCalls}, {&m.WriteBatchCalls, &res.WriteCalls},
			{&m.DropsAuth, &res.AuthDrops}, {&m.JournalFlushFailures, &res.JournalFlushFailures},
		}
	}
	var base []int64
	rebase := func() {
		base = base[:0]
		for _, t := range tallies() {
			base = append(base, t.c.Value())
		}
	}
	harvest := func() {
		for i, t := range tallies() {
			*t.sum += t.c.Value() - base[i]
		}
	}
	rebase()
	start := sched.Now()

	// Schedule every user's typing, phase-shifted so keystrokes spread
	// evenly across the interval, unless the load types in lockstep.
	for i, lc := range clients {
		c := opt.cohorts[lc.cohort]
		phase := opt.TypeInterval * time.Duration(i) / time.Duration(opt.Sessions)
		if opt.lockstep {
			phase = 0
		}
		var typeNext func()
		typeNext = func() {
			if lc.typed >= opt.Keystrokes {
				return
			}
			ch := c.keys[lc.typed%len(c.keys)]
			if c.echoed {
				lc.pending = append(lc.pending, pendingKey{
					col:  shellPromptLen + lc.typed,
					char: ch,
					at:   sched.Now(),
				})
			}
			lc.typed++
			lc.cl.UserBytes([]byte{ch})
			lc.wake()
			sched.AfterFunc(opt.TypeInterval, typeNext)
		}
		sched.At(start.Add(phase), typeNext)
	}

	typing := opt.TypeInterval * time.Duration(opt.Keystrokes)
	const outage = 300 * time.Millisecond
	killAt := start.Add(typing / 2)

	if opt.restart {
		// Kill the daemon mid-run (on-shutdown journal flush included) and
		// restore it after a short outage, transplanting the applications.
		sched.At(killAt, func() {
			harvest()
			d.Close()
		})
		sched.At(killAt.Add(outage), func() {
			nd, err := sessiond.New(cfg)
			if err != nil {
				panic(err)
			}
			res.Restarted = true
			res.Restored = nd.Metrics().SessionsRestored.Value()
			// The restored daemon takes over the dead one's stage and echo
			// observations, so the run's telemetry covers both.
			nd.Pipeline().Merge(d.Pipeline())
			d = nd
			wakeDaemon = d.Pump(sched)
			rebase()
			now := sched.Now()
			for _, lc := range clients {
				lc.preNum = lc.cl.Transport().RemoteStateNum()
				lc.resumeAt = now
			}
		})
	}

	if opt.roam {
		// A third of the sessions change network address 60% through the
		// typing window — floored past the restore instant on a restart
		// load, so roaming always exercises the restored daemon
		// (not the outage) however short the typing window is.
		roamAt := start.Add(typing * 3 / 5)
		if opt.restart {
			if floor := killAt.Add(outage + 200*time.Millisecond); roamAt.Before(floor) {
				roamAt = floor
			}
		}
		sched.At(roamAt, func() {
			for i, lc := range clients {
				if i%3 != 0 {
					continue
				}
				nw.Detach(lc.addr)
				delete(paths, lc.addr)
				lc.addr = netem.Addr{Host: uint32(1<<20 + i), Port: uint16(2000 + i%60000)}
				lc.path = newClientPath(lc.cohort, opt.Seed+int64(i)*104729)
				paths[lc.addr] = lc.path
				nw.Attach(lc.addr, lc.receive)
				// Speak from the new address promptly so the daemon
				// re-learns the reply target, like a real roaming client.
				lc.cl.Tick()
				lc.wake()
			}
		})
	}

	if opt.chaos {
		// Network chaos window: every live path's links fault in both
		// directions from shortly after the measured window opens until
		// typing ends, leaving the drain clean so retransmits can converge
		// the screens. A path a roam builds inside the window starts with
		// the faults.
		setChaos := func(on bool) {
			chaosOn = on
			for _, lc := range clients {
				lc.path.Up.SetParams(upParams(lc.cohort))
				lc.path.Down.SetParams(linkParams(lc.cohort))
			}
		}
		sched.At(start.Add(250*time.Millisecond), func() { setChaos(true) })
		sched.At(start.Add(typing), func() { setChaos(false) })
		if opt.restart {
			// Disk chaos: high failure rates so consecutive-failure
			// suspension actually triggers, healed just before the restart
			// kill (the shutdown flush must find a working disk for the
			// restore side of the torture to stay meaningful) and again at
			// the end of typing so the final suspension can resume.
			fsOn := faultinject.FSFaults{
				WriteErrProb: 0.85, ShortWriteProb: 0.2, SyncErrProb: 0.5,
				RenameErrProb: 0.25, TornRenameProb: 0.25,
			}
			sched.At(start.Add(400*time.Millisecond), func() { chaosFS.SetFaults(fsOn) })
			sched.At(killAt.Add(-100*time.Millisecond), func() { chaosFS.SetFaults(faultinject.FSFaults{}) })
			sched.At(killAt.Add(outage+300*time.Millisecond), func() { chaosFS.SetFaults(fsOn) })
			sched.At(start.Add(typing), func() { chaosFS.SetFaults(faultinject.FSFaults{}) })
			// Periodic flush pump: sim mode has no journal loop, so drive
			// the flush (and observe suspensions) on a fixed cadence.
			// Attempts self-gate on the retry backoff, so this cannot
			// defeat the backoff it is exercising.
			var pump func()
			pump = func() {
				d.FlushJournal()
				if d.JournalSuspended() != 0 {
					res.JournalSuspendedSeen = true
				}
				sched.AfterFunc(500*time.Millisecond, pump)
			}
			sched.AfterFunc(500*time.Millisecond, pump)
		}
	}

	// Run through the typing period plus a generous drain for retransmits.
	sched.RunFor(typing + 10*time.Second)
	for _, lc := range clients {
		res.Lost += len(lc.pending)
	}

	res.Elapsed = sched.Now().Sub(start)
	res.Wall = wallClock.Since(wallStart)
	harvest()
	m := d.Metrics()
	res.ReadBatchP50 = m.ReadBatchSizes.Quantile(0.50)
	res.ReadBatchP99 = m.ReadBatchSizes.Quantile(0.99)
	res.WriteBatchP50 = m.WriteBatchSizes.Quantile(0.50)
	res.WriteBatchP99 = m.WriteBatchSizes.Quantile(0.99)
	if pkts := res.PacketsIn + res.PacketsOut; pkts > 0 {
		res.SyscallsPerPacket = float64(res.ReadCalls+res.WriteCalls) / float64(pkts)
	}
	if opt.captureFrames {
		for _, lc := range clients {
			res.FrameHashes = append(res.FrameHashes, lc.frameHash.Sum64())
			res.FinalFrames = append(res.FinalFrames, terminal.NewFrame(false, nil, lc.cl.ServerState()))
		}
	}
	if opt.chaos {
		for _, b := range built {
			lossless := cohortParams(b.cohort).LossProb == 0
			for _, l := range []*netem.Link{b.path.Up, b.path.Down} {
				st := l.Stats()
				if lossless {
					res.ChaosDropped += int64(st.DroppedLoss)
				}
				res.ChaosDuplicated += int64(st.Duplicated)
				res.ChaosCorrupted += int64(st.Corrupted)
				res.ChaosTruncated += int64(st.Truncated)
			}
		}
		res.FlightDump = d.FlightDump("chaos-run-end")
	}

	// Server-side telemetry: per-cohort Fig. 6 echo percentiles, the
	// client-visible fractions, and the pipeline stage latencies.
	res.ClientLe16ms, res.ClientLeRTT = Fig6Fractions(res.Samples)
	for c, a := range echoAggs {
		if a.n == 0 {
			continue
		}
		res.EchoCohorts = append(res.EchoCohorts, EchoCohortStats{
			Name:   opt.cohorts[c].name,
			N:      a.n,
			P50:    a.hist.QuantileDuration(0.50),
			P99:    a.hist.QuantileDuration(0.99),
			P999:   a.hist.QuantileDuration(0.999),
			Le16ms: float64(a.le16) / float64(a.n),
			LeRTT:  float64(a.leRTT) / float64(a.n),
		})
	}
	for _, st := range telemetry.Stages() {
		h := d.Pipeline().Stage(st)
		if h.Count() == 0 {
			continue
		}
		res.StageStats = append(res.StageStats, StageStat{
			Name: st.String(),
			N:    h.Count(),
			P50:  h.QuantileDuration(0.50),
			P99:  h.QuantileDuration(0.99),
			P999: h.QuantileDuration(0.999),
		})
	}
	return res
}

// FormatManySession renders the load generator's report: aggregate
// throughput through the single daemon socket plus keystroke latency
// percentiles across every session.
func FormatManySession(r ManySessionResult) string {
	var b strings.Builder
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	switch c := r.Cohorts; {
	case len(c) > 1:
		mix := make([]string, len(c))
		for i, cs := range c {
			mix[i] = fmt.Sprintf("%d %s", cs.Sessions, cs.Name)
		}
		fmt.Fprintf(&b, "many-session load: %d sessions (%s) × %d keystrokes over one daemon socket\n",
			r.Sessions, strings.Join(mix, " / "), r.Keystrokes)
	case len(c) == 1 && c[0].Name == "bulk-stream":
		fmt.Fprintf(&b, "many-session load: %d bulk-stream sessions × %d keystrokes (lockstep egress trains) over one daemon socket\n",
			r.Sessions, r.Keystrokes)
	default:
		fmt.Fprintf(&b, "many-session load: %d sessions × %d keystrokes over one daemon socket\n",
			r.Sessions, r.Keystrokes)
	}
	fmt.Fprintf(&b, "  throughput: %7.0f pkts/s in, %7.0f pkts/s out, %8.1f KB/s in, %8.1f KB/s out (virtual)\n",
		float64(r.PacketsIn)/secs, float64(r.PacketsOut)/secs,
		float64(r.BytesIn)/secs/1024, float64(r.BytesOut)/secs/1024)
	if r.ReadCalls+r.WriteCalls > 0 {
		// The unbatched baseline is exactly 1.0 syscall per datagram by
		// construction, so the factor below is directly the batching win.
		factor := 0.0
		if r.SyscallsPerPacket > 0 {
			factor = 1 / r.SyscallsPerPacket
		}
		fmt.Fprintf(&b, "  socket io [%s]: %d read + %d write syscalls for %d pkts → %.3f syscalls/pkt (%.1fx fewer than 1/pkt); batch size read p50/p99 = %d/%d, write p50/p99 = %d/%d\n",
			r.IOModel, r.ReadCalls, r.WriteCalls, r.PacketsIn+r.PacketsOut, r.SyscallsPerPacket, factor,
			r.ReadBatchP50, r.ReadBatchP99, r.WriteBatchP50, r.WriteBatchP99)
	}
	// A load that samples no echo (the bulk stream) has no client-side
	// latency to report.
	st := Summarize(r.Samples)
	if st.N > 0 || r.Lost > 0 {
		fmt.Fprintf(&b, "  keystroke latency: n=%d p50=%v p90=%v p99=%v max=%v lost=%d\n",
			st.N, Percentile(r.Samples, 50), Percentile(r.Samples, 90),
			Percentile(r.Samples, 99), Percentile(r.Samples, 100), r.Lost)
	}
	if st.N > 0 {
		fmt.Fprintf(&b, "  fig6 (client-visible): %.1f%% ≤ 16 ms, %.1f%% ≤ 1 RTT\n",
			r.ClientLe16ms*100, r.ClientLeRTT*100)
	}
	for _, ec := range r.EchoCohorts {
		fmt.Fprintf(&b, "  keystroke→echo [%s]: n=%d p50=%v p99=%v p99.9=%v; %.1f%% ≤ 16 ms, %.1f%% ≤ 1 RTT (server-side)\n",
			ec.Name, ec.N, ec.P50.Round(time.Microsecond), ec.P99.Round(time.Microsecond),
			ec.P999.Round(time.Microsecond), ec.Le16ms*100, ec.LeRTT*100)
	}
	if len(r.StageStats) > 0 {
		fmt.Fprintf(&b, "  pipeline stages (p50/p99/p99.9):")
		for _, ss := range r.StageStats {
			fmt.Fprintf(&b, " %s=%v/%v/%v", ss.Name,
				ss.P50.Round(time.Microsecond), ss.P99.Round(time.Microsecond),
				ss.P999.Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	if r.Roams > 0 {
		fmt.Fprintf(&b, "  roaming: %d authentic address changes observed\n", r.Roams)
	}
	if r.Restarted {
		rs := Summarize(r.ResumeSamples)
		fmt.Fprintf(&b, "  restart: %d/%d sessions restored from the journal; resumption latency n=%d p50=%v p90=%v p99=%v max=%v\n",
			r.Restored, r.Sessions, rs.N,
			Percentile(r.ResumeSamples, 50), Percentile(r.ResumeSamples, 90),
			Percentile(r.ResumeSamples, 99), Percentile(r.ResumeSamples, 100))
	}
	if r.ChaosActive {
		fmt.Fprintf(&b, "  chaos: wire %d dropped / %d duped / %d corrupted / %d truncated; %d auth drops; %d journal flush failures (suspension seen: %v); nonce violations: %d\n",
			r.ChaosDropped, r.ChaosDuplicated, r.ChaosCorrupted, r.ChaosTruncated,
			r.AuthDrops, r.JournalFlushFailures, r.JournalSuspendedSeen, r.NonceViolations)
	}
	fmt.Fprintf(&b, "  sim: %v virtual in %v wall (%.1fx real time)",
		r.Elapsed.Round(time.Millisecond), r.Wall.Round(time.Millisecond),
		r.Elapsed.Seconds()/max(r.Wall.Seconds(), 1e-9))
	return b.String()
}
