//go:build linux

package main

import "time"

// spanName indexes the span names the ladder records.
type spanName int

const (
	// spIgnored is the zero value: calls a rung makes but does not report.
	spIgnored spanName = iota
	spHandleBatch
	spTickDue
	spApp
	spSrvReceive
	spSrvTick
	spSrvHostOutput
	spSrvWaitTime
	spCliUserBytes
	spCliReceive
	spCliTick
	spCliWaitTime
	spTrReceive
	spTrTick
	spTrWaitTime
	spEmuWrite
	spUserPush
	spFrameDiff
	spFrameApply
	spStateDiff
	spStateApply
	spStateClone
	spUserDiff
	spUserApply
	spOverlay
	spCryptoLoop
	spSockWrite
	spSockRead
	spJournalFlush
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"unreported",
	"sessiond.HandleBatch", "sessiond.TickDue", "host.App.Input",
	"core.Server.Receive", "core.Server.Tick", "core.Server.HostOutput", "core.Server.WaitTime",
	"core.Client.UserBytes", "core.Client.Receive", "core.Client.Tick", "core.Client.WaitTime",
	"transport.Receive", "transport.Tick", "transport.WaitTime",
	"terminal.Emulator.Write", "statesync.UserStream.PushBytes",
	"terminal.FrameWriter.AppendFrame", "terminal.Emulator.Write(frame)",
	"statesync.Complete.AppendDiff", "statesync.Complete.Apply", "statesync.Complete.Clone",
	"statesync.UserStream.PushBytes+AppendDiff", "statesync.UserStream.Apply",
	"overlay.Engine.NewUserInput+Cull+Apply",
	"crypto-loop", "udpbatch.WriteBatch", "udpbatch.ReadBatch", "sessiond.FlushJournal",
}

// span is one recorded call: {name, start, end, parent, id=(session,
// keystroke)}. Parent is the 1-based index of the span that caused it in
// the file's span list (0 = none).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Key     int    `json:"keystroke"`
	Note    string `json:"note,omitempty"`
}

type openSpan struct {
	name  spanName
	m0    uint64 // allocation count at begin
	start time.Time
	child int64 // ns covered by child spans
	idx   int   // index into tracer.spans, -1 when not retained
}

// tracer records spans in memory and keeps per-name totals. Spans beyond
// keep are still timed and totalled, just not retained for the span file.
type tracer struct {
	t0    time.Time
	spans []span
	keep  int
	stack []openSpan
	total [numSpanNames]int64 // inclusive ns
	self  [numSpanNames]int64 // ns not covered by child spans
	count [numSpanNames]int64
	// allocs, when countAllocs is set, is the heap allocations made inside
	// spans of each name (inclusive of child spans). Counting reads a
	// runtime metric outside the timed region of every span.
	countAllocs bool
	allocs      [numSpanNames]uint64
}

func newTracer(keep int) *tracer { return &tracer{t0: time.Now(), keep: keep} }

func (t *tracer) begin(name spanName, session, key int) {
	o := openSpan{name: name, idx: -1}
	if len(t.spans) < t.keep {
		parent := 0
		if n := len(t.stack); n > 0 && t.stack[n-1].idx >= 0 {
			parent = t.stack[n-1].idx + 1
		}
		o.idx = len(t.spans)
		t.spans = append(t.spans, span{Name: spanNames[name], Parent: parent, Session: session, Key: key})
	}
	if t.countAllocs {
		o.m0 = mallocs()
	}
	t.stack = append(t.stack, o)
	t.stack[len(t.stack)-1].start = time.Now()
}

func (t *tracer) end() {
	now := time.Now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if t.countAllocs {
		t.allocs[o.name] += mallocs() - o.m0
	}
	dur := int64(now.Sub(o.start))
	t.total[o.name] += dur
	t.self[o.name] += dur - o.child
	t.count[o.name]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	}
	if o.idx >= 0 {
		t.spans[o.idx].Start = int64(o.start.Sub(t.t0))
		t.spans[o.idx].End = int64(now.Sub(t.t0))
	}
}

// note annotates the most recently begun retained span.
func (t *tracer) note(s string) {
	if n := len(t.stack); n > 0 && t.stack[n-1].idx >= 0 {
		t.spans[t.stack[n-1].idx].Note = s
	}
}
