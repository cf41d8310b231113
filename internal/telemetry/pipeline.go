package telemetry

import (
	"sync/atomic"
	"time"
)

// Stage names one segment of the datagram pipeline, ingress to egress.
// Every stage gets a latency histogram in a Pipeline; the probes live in
// udpbatch/sessiond/network/transport and take timestamps from the
// configured Clock, so under simclock the CPU-bound stages read as 0 and
// the queueing stages read exact virtual waits — deterministically.
type Stage uint8

const (
	// StageRead is one ingress read call. On a served socket it includes
	// blocking for traffic; in simulation it is a 0-duration marker per
	// modeled read syscall (so its count still matches read_batch_calls).
	StageRead Stage = iota
	// StageDemux is envelope parsing + per-session grouping of one batch.
	StageDemux
	// StageQueueWait was a packet run's wait between the reader and a
	// per-session worker. sessiond's packet path is run to completion, so
	// nothing observes it any more; the name stays because the repository
	// benchmark reads it (sessiond.stage_queue_wait_*), where it is now 0.
	StageQueueWait
	// StageVerify is AEAD open (decrypt + authenticate) of one datagram.
	StageVerify
	// StageApply is statesync apply of one received instruction.
	StageApply
	// StageTick is one sender tick: the timer rules, and when the tick
	// sends, the frame — diffed, encoded, sealed and emitted there, or only
	// checked, sealed and emitted when StagePrepare had built it.
	StageTick
	// StageSeal is AEAD seal of one outgoing datagram.
	StageSeal
	// StageEgressWait is a datagram's wait for its write, measured from the
	// clock reading of the sweep that emitted it (taken once, when the
	// sweep began) to the flush that ends that sweep: an upper bound on its
	// time in the egress ring, and a direct reading of how long a sweep
	// runs before it writes.
	StageEgressWait
	// StageWrite is one egress sweep's socket write (batched or looped).
	StageWrite
	// StageEcho is the end-to-end keystroke→echo-frame latency: from a
	// keystroke's arrival at the daemon to the mint of the first state
	// delta that carries its host output. This is the paper's Fig. 6
	// number, measured server-side.
	StageEcho
	// StagePrepare is one frame built ahead of its send deadline (snapshot,
	// diff, marshal, deflate), after the sweep that made it pending has
	// written its replies out: work no reply waits for.
	StagePrepare
	numStages
)

var stageNames = [numStages]string{
	StageRead:       "read",
	StageDemux:      "demux",
	StageQueueWait:  "queue_wait",
	StageVerify:     "verify",
	StageApply:      "apply",
	StageTick:       "tick",
	StageSeal:       "seal",
	StageEgressWait: "egress_wait",
	StageWrite:      "write",
	StageEcho:       "echo",
	StagePrepare:    "prepare",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// Stages lists every pipeline stage in ingress-to-egress order, for
// exporters and reports that iterate the whole vocabulary.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Pipeline holds one latency histogram per stage plus the Fig. 6 echo
// counters. A nil *Pipeline is valid and inert, so probe sites need no
// nil checks.
type Pipeline struct {
	hists [numStages]*Hist

	echoTotal atomic.Int64
	echoLE16  atomic.Int64 // echoes within 16 ms (one frame at 60 Hz)
	echoLERTT atomic.Int64 // echoes within one smoothed RTT
}

// NewPipeline returns a pipeline with empty stage histograms
// (nanosecond-valued, ≤1.6% relative error).
func NewPipeline() *Pipeline {
	p := &Pipeline{}
	for i := range p.hists {
		p.hists[i] = NewHist(6)
	}
	return p
}

// Observe records one stage latency. Nil-safe.
func (p *Pipeline) Observe(st Stage, d time.Duration) {
	if p == nil {
		return
	}
	p.hists[st].Observe(int64(d))
}

// Stage returns the histogram for one stage (nil on a nil pipeline —
// Hist's read accessors are nil-safe).
func (p *Pipeline) Stage(st Stage) *Hist {
	if p == nil {
		return nil
	}
	return p.hists[st]
}

// ObserveEcho records one matched keystroke→echo latency along with the
// paper's two threshold buckets: within 16 ms, and within one smoothed
// RTT (skipped when the transport has no RTT estimate yet). Nil-safe.
func (p *Pipeline) ObserveEcho(lat, srtt time.Duration) {
	if p == nil {
		return
	}
	p.hists[StageEcho].Observe(int64(lat))
	p.echoTotal.Add(1)
	if lat <= 16*time.Millisecond {
		p.echoLE16.Add(1)
	}
	if srtt > 0 && lat <= srtt {
		p.echoLERTT.Add(1)
	}
}

// EchoStats reports the Fig. 6 counters: total matched echoes, echoes
// within 16 ms, and echoes within one RTT. Nil-safe.
func (p *Pipeline) EchoStats() (total, le16, leRTT int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.echoTotal.Load(), p.echoLE16.Load(), p.echoLERTT.Load()
}

// Merge adds o's histograms and counters into p (nil o is ignored).
func (p *Pipeline) Merge(o *Pipeline) {
	if p == nil || o == nil {
		return
	}
	for i := range p.hists {
		p.hists[i].Merge(o.hists[i])
	}
	p.echoTotal.Add(o.echoTotal.Load())
	p.echoLE16.Add(o.echoLE16.Load())
	p.echoLERTT.Add(o.echoLERTT.Load())
}

// Reset zeroes every stage histogram and the echo counters.
func (p *Pipeline) Reset() {
	if p == nil {
		return
	}
	for i := range p.hists {
		p.hists[i].Reset()
	}
	p.echoTotal.Store(0)
	p.echoLE16.Store(0)
	p.echoLERTT.Store(0)
}
