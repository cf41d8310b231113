package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/overlay"
)

// typeMany types n position-dependent keystrokes 10 ms apart into a
// session whose host application records every byte and echoes it, and
// instruments every server Receive: how many user events the server's
// remote object retains afterwards, how much history the call had to walk,
// what it cost, and what it allocated.
type typedRun struct {
	hostGot     []byte
	maxRetained int // most events RemoteState() held after any Receive
	// walked is, for each Receive that delivered input, the history it
	// found: the user events the receiver holds (its rationalization and
	// the server's delivery walk them), the screen states the sender keeps
	// (an acknowledgment and the tick walk them) and the echo queue.
	walked    []int
	cost      []time.Duration // wall time of the same Receives, reported only
	allocated []uint64        // heap bytes allocated by the run, sampled per 1000 keystrokes
	echoBase  []*echoEntry    // the server echo queue's backing array at the same samples
}

// sample records the run's allocation counters at a thousand-keystroke mark.
func (run *typedRun) sample(srv *Server) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	run.allocated = append(run.allocated, ms.TotalAlloc)
	var base *echoEntry
	if cap(srv.echoQueue) > 0 {
		base = &srv.echoQueue[:1][0]
	}
	run.echoBase = append(run.echoBase, base)
}

func typeMany(t *testing.T, params netem.LinkParams, n int) (*session, *typedRun) {
	t.Helper()
	ss := newSession(t, params, overlay.Never)
	run := &typedRun{}
	ss.hostScript = func(data []byte) {
		run.hostGot = append(run.hostGot, data...)
		out := bytes.Clone(data)
		ss.sched.AfterFunc(time.Millisecond, func() {
			ss.server.HostOutput(out)
			ss.wakeServer()
		})
	}
	ss.net.Attach(ss.serverAddr, func(p netem.Packet) {
		before := len(run.hostGot)
		tr := ss.server.Transport()
		walked := len(tr.RemoteState().EventsSince(0)) + tr.Sender().SentStateCount() + len(ss.server.echoQueue)
		start := time.Now()
		ss.server.Receive(p.Payload, p.Src)
		if d := time.Since(start); len(run.hostGot) > before {
			run.walked = append(run.walked, walked)
			run.cost = append(run.cost, d)
		}
		run.maxRetained = max(run.maxRetained, len(ss.server.Transport().RemoteState().EventsSince(0)))
	})
	ss.run(time.Second)
	for i := 0; i < n; i++ {
		if i%1000 == 0 {
			run.sample(ss.server)
		}
		ss.client.TypeRune(rune('a' + i%26))
		ss.wakeClient()
		ss.run(10 * time.Millisecond)
	}
	run.sample(ss.server)
	ss.run(30 * time.Second)
	return ss, run
}

func wantKeys(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

func historyKeystrokes() int {
	if testing.Short() || raceEnabled {
		return 20_000
	}
	return 100_000
}

// TestServerHistoryBoundedOverLongSession: a session's cost must not grow
// with its age. Over 10⁵ keystrokes the server's view of the user stream
// never holds more than the unacknowledged window, the last thousand
// keystrokes walk as much history as the first thousand did, and the host
// application receives every byte exactly once, in order.
func TestServerHistoryBoundedOverLongSession(t *testing.T) {
	n := historyKeystrokes()
	ss, run := typeMany(t, netem.LinkParams{Delay: 20 * time.Millisecond}, n)
	if !bytes.Equal(run.hostGot, wantKeys(n)) {
		t.Fatalf("host received %d bytes, want %d exactly once in order", len(run.hostGot), n)
	}
	// 10 ms keystrokes against a 40 ms RTT and piggybacked acks: a handful
	// of events in flight, however long the session.
	if run.maxRetained > 16 {
		t.Fatalf("server's RemoteState() retained up to %d events over %d keystrokes, want <= 16", run.maxRetained, n)
	}
	if held := len(ss.client.tr.CurrentState().EventsSince(0)); held != 0 {
		t.Fatalf("client still holds %d acknowledged events", held)
	}

	// Cost, counted in virtual time and so exactly repeatable: the history
	// the last thousand input-bearing Receives walked against the first
	// thousand, and the bytes the whole session allocated over the last
	// thousand keystrokes against the first. Work that grows with the
	// session's age must move both; a GC pause or a co-tenant stall moves
	// neither. The wall-clock cost is only reported.
	if len(run.walked) < 4000 {
		t.Fatalf("only %d input-bearing datagrams; the comparison needs two disjoint thousands", len(run.walked))
	}
	firstW, lastW := sum(run.walked[:1000]), sum(run.walked[len(run.walked)-1000:])
	if lastW > 2*firstW {
		t.Fatalf("the last 1000 input-bearing Receives walked %d events and states, the first 1000 %d", lastW, firstW)
	}
	decile := func(d []time.Duration) time.Duration {
		d = slices.Clone(d)
		slices.Sort(d)
		return d[len(d)/10]
	}
	first, last := decile(run.cost[:1000]), decile(run.cost[len(run.cost)-1000:])
	k := len(run.allocated) - 1
	firstB, lastB := run.allocated[1]-run.allocated[0], run.allocated[k]-run.allocated[k-1]
	// Under -race sync.Pool drops puts at random, so the byte count is only
	// repeatable, and asserted, without it (CI's non-race full run).
	if !raceEnabled && lastB > 2*firstB {
		t.Fatalf("the last 1000 keystrokes allocated %d bytes, the first 1000 %d", lastB, firstB)
	}
	// The echo queue holds EchoAckTimeout's worth of keystrokes (five here)
	// and is compacted in place: once warm it never reallocates.
	if run.echoBase[1] == nil || run.echoBase[1] != run.echoBase[k] {
		t.Fatalf("server echo queue reallocated between keystroke 1000 and keystroke %d", n)
	}
	t.Logf("%d keystrokes: max retained %d events; walked/1000 Receives %d → %d; Receive p10 %v → %v; bytes/1000 keystrokes %d → %d",
		n, run.maxRetained, firstW, lastW, first, last, firstB, lastB)
}

func sum(v []int) (s int) {
	for _, x := range v {
		s += x
	}
	return s
}

// TestServerHistoryBoundedUnderLossAndReordering: with 30 % loss each way
// and reordering, what the server retains is bounded by the unacknowledged
// window (a few round trips of typing), not by the session's age — and
// delivery is still exactly once, in order.
func TestServerHistoryBoundedUnderLossAndReordering(t *testing.T) {
	n := historyKeystrokes()
	_, run := typeMany(t, netem.LinkParams{
		Delay: 20 * time.Millisecond, Jitter: 30 * time.Millisecond, AllowReorder: true, LossProb: 0.3,
	}, n)
	if !bytes.Equal(run.hostGot, wantKeys(n)) {
		t.Fatalf("host received %d bytes, want %d exactly once in order", len(run.hostGot), n)
	}
	if run.maxRetained > 1024 {
		t.Fatalf("server's RemoteState() retained up to %d events over %d keystrokes, want <= 1024", run.maxRetained, n)
	}
	t.Logf("%d keystrokes at 30%% loss: max retained %d events", n, run.maxRetained)
}
