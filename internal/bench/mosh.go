package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/trace"
	"repro/internal/transport"
)

var benchEpoch = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

// MoshOptions configures the Mosh arm of an experiment.
type MoshOptions struct {
	// Predictions selects the speculative-echo policy (Never for the
	// loss experiment, Adaptive elsewhere).
	Predictions overlay.DisplayPreference
	// Timing overrides SSP timing on both ends, field by field (the
	// ablations).
	Timing transport.Timing
	// BulkDownload shares the downlink with a saturating TCP flow
	// (the LTE bufferbloat experiment).
	BulkDownload bool
}

// MoshResult carries samples plus session-level counts.
type MoshResult struct {
	Samples []Sample
	// Mispredicted counts keystrokes whose displayed prediction proved
	// wrong.
	Mispredicted int
	// WirePackets counts datagrams the session put on the wire.
	WirePackets int
}

type keyInfo struct {
	seq uint64
	at  time.Time
	// visibility via the server path
	stateNum  uint64 // first server state containing the response
	sent      bool
	visibleAt time.Time
	visible   bool
}

// RunMoshTrace replays one trace through a full Mosh session over the
// given path parameters, returning per-keystroke response samples.
func RunMoshTrace(tr *trace.Trace, params netem.LinkParams, seed int64, opt MoshOptions) MoshResult {
	sched := simclock.NewScheduler(benchEpoch)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, params, seed)
	clientAddr := netem.Addr{Host: 1, Port: 1001}
	serverAddr := netem.Addr{Host: 2, Port: 60001}
	key := sspcrypto.Key{byte(seed), 0x5e}

	keys := make([]*keyInfo, len(tr.Steps))
	wire := 0

	var server *core.Server
	var wakeServer func()
	pendingSend := []int{} // steps whose response was written, awaiting a send
	replay := newHostReplay(sched, tr, func(si int, response []byte) {
		server.HostOutput(response)
		pendingSend = append(pendingSend, si)
		wakeServer()
	})

	var err error
	server, err = core.NewServer(core.ServerConfig{
		Key: key, Clock: sched,
		Width: tr.Width, Height: tr.Height,
		Timing: opt.Timing,
		Emit: func(w []byte) {
			wire++
			// Any data send after a response write carries it: record
			// the state number for visibility tracking.
			if len(pendingSend) > 0 {
				num := server.Transport().Sender().LastSentNum()
				for _, si := range pendingSend {
					keys[si].stateNum = num
					keys[si].sent = true
				}
				pendingSend = pendingSend[:0]
			}
			if dst, ok := server.Transport().Connection().RemoteAddr(); ok {
				path.Down.Send(netem.Packet{Src: serverAddr, Dst: dst, Payload: w})
			}
		},
		HostInput: func(data []byte) { replay.Input(len(data)) },
	})
	if err != nil {
		panic(err)
	}

	var client *core.Client
	client, err = core.NewClient(core.ClientConfig{
		Key: key, Clock: sched,
		Width: tr.Width, Height: tr.Height,
		Timing:      opt.Timing,
		Predictions: opt.Predictions,
		Emit: func(w []byte) {
			wire++
			path.Up.Send(netem.Packet{Src: clientAddr, Dst: serverAddr, Payload: w})
		},
	})
	if err != nil {
		panic(err)
	}

	wakeClient := core.Pump(sched, client)
	wakeServer = core.Pump(sched, server)
	// Receiving can establish new deadlines (delayed acks, echo acks), so
	// the pump timers are re-armed after every arrival.
	nw.Attach(serverAddr, func(p netem.Packet) {
		server.Receive(p.Payload, p.Src)
		wakeServer()
	})
	nw.Attach(clientAddr, func(p netem.Packet) {
		client.Receive(p.Payload, p.Src)
		wakeClient()
		// A new remote state may make pending responses visible.
		m := client.Transport().RemoteStateNum()
		now := sched.Now()
		for _, ki := range keys {
			if ki != nil && ki.sent && !ki.visible && ki.stateNum <= m {
				ki.visible = true
				ki.visibleAt = now
			}
		}
	})

	// Let RTT estimates settle, then write the startup output.
	warmup := 3 * time.Second
	if opt.BulkDownload {
		startBulk(sched, nw, path)
		// The paper measures with the download already in progress: give
		// the bulk flow time to stand the bottleneck queue up.
		warmup = 30 * time.Second
	}
	sched.RunFor(warmup)
	if len(tr.Startup) > 0 {
		server.HostOutput(tr.Startup)
		wakeServer()
	}
	start := sched.Now()

	// Schedule the user side of the replay.
	for i, st := range tr.Steps {
		i, st := i, st
		sched.At(start.Add(st.At), func() {
			keys[i] = &keyInfo{seq: client.UserBytes(st.Data), at: sched.Now()}
			wakeClient()
		})
	}

	sched.RunUntil(start.Add(tr.Duration() + 30*time.Second))

	// Collect samples.
	res := MoshResult{WirePackets: wire}
	for i, ki := range keys {
		if ki == nil {
			continue
		}
		st := tr.Steps[i]
		rec, hasRec := client.Predictions().TakeInputRecord(ki.seq)
		var lat time.Duration
		have := false
		predicted := false
		if hasRec && rec.Displayed && rec.Outcome == overlay.OutcomeCorrect {
			lat = rec.DisplayedAt.Sub(ki.at)
			have = true
			predicted = true
		}
		// The paper's repaired fraction counts *displayed* erroneous
		// predictions (ones the user saw get repaired); background
		// speculation that was disproven before display doesn't qualify.
		if hasRec && rec.Displayed && rec.Outcome == overlay.OutcomeIncorrect {
			res.Mispredicted++
		}
		if ki.visible {
			sl := ki.visibleAt.Sub(ki.at)
			if !have || sl < lat {
				lat = sl
				predicted = false
			}
			have = true
		}
		if len(st.Response) == 0 && !predicted {
			continue // no observable response (e.g. password typing)
		}
		if !have {
			continue // response never made it (shouldn't happen; excluded)
		}
		if lat < 0 {
			lat = 0
		}
		res.Samples = append(res.Samples, Sample{Latency: lat})
	}
	return res
}
