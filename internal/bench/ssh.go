package bench

import (
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sshsim"
	"repro/internal/trace"
)

// SSHOptions configures the SSH arm of an experiment.
type SSHOptions struct {
	// BulkDownload shares the downlink with a saturating TCP flow.
	BulkDownload bool
}

// startBulk launches the saturating download plus its ack flow, sharing
// the experiment path's bottleneck queues.
func startBulk(sched *simclock.Scheduler, nw *netem.Network, path *netem.Path) {
	sshsim.BulkFlow(sched, nw, path,
		netem.Addr{Host: 2, Port: 80}, netem.Addr{Host: 1, Port: 8080})
}

// RunSSHTrace replays one trace through the SSH baseline over the given
// path parameters. Latency for keystroke k is the time until the host's
// prerecorded response to k has been fully delivered (and therefore
// rendered) at the client — SSH renders output the moment it arrives.
func RunSSHTrace(tr *trace.Trace, params netem.LinkParams, seed int64, opt SSHOptions) []Sample {
	sched := simclock.NewScheduler(benchEpoch)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, params, seed)

	ss := sshsim.New(sshsim.Config{
		Sched: sched, Net: nw, Path: path,
		ClientAddr: netem.Addr{Host: 1, Port: 1002},
		ServerAddr: netem.Addr{Host: 2, Port: 22},
	})
	if opt.BulkDownload {
		startBulk(sched, nw, path)
		sched.RunFor(30 * time.Second) // download in progress before measuring
	}

	type pending struct {
		step   int
		offset int64 // stream offset at which the response completes
	}
	var awaiting []pending
	keyAt := make([]time.Time, len(tr.Steps))
	visibleAt := make([]time.Time, len(tr.Steps))
	visible := make([]bool, len(tr.Steps))

	replay := newHostReplay(sched, tr, func(si int, response []byte) {
		awaiting = append(awaiting, pending{step: si, offset: ss.HostOutput(response)})
	})
	ss.OnServerInput = func(data []byte) { replay.Input(len(data)) }
	ss.OnClientOutput = func([]byte) {
		now := sched.Now()
		seen := ss.DeliveredAtClient()
		keep := awaiting[:0]
		for _, p := range awaiting {
			if p.offset <= seen {
				visible[p.step] = true
				visibleAt[p.step] = now
			} else {
				keep = append(keep, p)
			}
		}
		awaiting = keep
	}

	// Warm the connection, print startup output.
	sched.RunFor(time.Second)
	if len(tr.Startup) > 0 {
		ss.HostOutput(tr.Startup)
	}
	sched.RunFor(2 * time.Second)
	start := sched.Now()

	for i, st := range tr.Steps {
		i, st := i, st
		sched.At(start.Add(st.At), func() {
			keyAt[i] = sched.Now()
			ss.Type(st.Data)
		})
	}

	sched.RunUntil(start.Add(tr.Duration() + 120*time.Second))

	var samples []Sample
	for i, st := range tr.Steps {
		if len(st.Response) == 0 || !visible[i] {
			continue
		}
		lat := visibleAt[i].Sub(keyAt[i])
		if lat < 0 {
			lat = 0
		}
		samples = append(samples, Sample{Latency: lat})
	}
	return samples
}
