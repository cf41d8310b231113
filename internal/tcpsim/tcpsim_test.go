package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	sched *simclock.Scheduler
	net   *netem.Network
	path  *netem.Path
	a, b  *Conn
	gotA  []byte
	gotB  []byte
}

func newFixture(t *testing.T, params netem.LinkParams) *fixture {
	t.Helper()
	f := &fixture{sched: simclock.NewScheduler(t0)}
	f.net = netem.NewNetwork(f.sched)
	f.path = netem.NewPath(f.net, params, 5)
	aAddr := netem.Addr{Host: 1, Port: 22}
	bAddr := netem.Addr{Host: 2, Port: 22}
	f.a, f.b = Pair(f.sched, f.net, f.path, aAddr, bAddr,
		func(d []byte) { f.gotA = append(f.gotA, d...) },
		func(d []byte) { f.gotB = append(f.gotB, d...) })
	return f
}

func TestInOrderDelivery(t *testing.T) {
	f := newFixture(t, netem.LinkParams{Delay: 50 * time.Millisecond})
	f.a.Send([]byte("hello "))
	f.a.Send([]byte("world"))
	f.sched.RunFor(time.Second)
	if string(f.gotB) != "hello world" {
		t.Fatalf("delivered %q", f.gotB)
	}
}

func TestBidirectional(t *testing.T) {
	f := newFixture(t, netem.LinkParams{Delay: 30 * time.Millisecond})
	f.a.Send([]byte("ping"))
	f.b.Send([]byte("pong"))
	f.sched.RunFor(time.Second)
	if string(f.gotB) != "ping" || string(f.gotA) != "pong" {
		t.Fatalf("a got %q, b got %q", f.gotA, f.gotB)
	}
}

func TestLargeTransferSegmentsAndReassembles(t *testing.T) {
	f := newFixture(t, netem.LinkParams{Delay: 10 * time.Millisecond})
	data := bytes.Repeat([]byte("0123456789"), 10000) // 100 kB
	f.a.Send(data)
	f.sched.RunFor(10 * time.Second)
	if !bytes.Equal(f.gotB, data) {
		t.Fatalf("delivered %d bytes, want %d", len(f.gotB), len(data))
	}
	if f.a.stats.SegmentsSent < 80 {
		t.Fatalf("only %d segments for 100kB", f.a.stats.SegmentsSent)
	}
}

func TestRecoversFromLoss(t *testing.T) {
	f := newFixture(t, netem.LinkParams{Delay: 50 * time.Millisecond, LossProb: 0.29})
	data := bytes.Repeat([]byte("x"), 50000)
	f.a.Send(data)
	f.sched.RunFor(10 * time.Minute)
	if !bytes.Equal(f.gotB, data) {
		t.Fatalf("delivered %d/%d bytes under loss", len(f.gotB), len(data))
	}
	if f.a.stats.Retransmissions == 0 {
		t.Fatal("no retransmissions under 29% loss")
	}
}

func TestRTOFloorIsOneSecond(t *testing.T) {
	f := newFixture(t, netem.LinkParams{Delay: 10 * time.Millisecond})
	// Warm the RTT estimate (20ms RTT => raw RTO would be tiny).
	f.a.Send([]byte("warmup"))
	f.sched.RunFor(time.Second)
	if got := f.a.RTO(); got != time.Second {
		t.Fatalf("RTO = %v, want TCP's 1s floor", got)
	}
}

func TestExponentialBackoff(t *testing.T) {
	f := newFixture(t, netem.LinkParams{Delay: 10 * time.Millisecond, LossProb: 1.0})
	f.a.Send([]byte("doomed"))
	f.sched.RunFor(40 * time.Second)
	st := f.a.stats
	if st.Timeouts < 3 || st.Timeouts > 8 {
		// 1s + 2s + 4s + 8s + 16s... ≈ 5 timeouts in 40s.
		t.Fatalf("timeouts in 40s of blackhole = %d, want ~5 (exponential backoff)", st.Timeouts)
	}
	if got := f.a.RTO(); got < 16*time.Second {
		t.Fatalf("RTO after backoff = %v", got)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// Under loss, the stream must stay intact and in order: nothing
	// after a lost byte is delivered until the gap repairs.
	f := newFixture(t, netem.LinkParams{Delay: 20 * time.Millisecond, LossProb: 0.5})
	payload := bytes.Repeat([]byte("abcdefgh"), 2000)
	f.a.Send(payload)
	f.sched.RunFor(15 * time.Minute)
	if !bytes.Equal(f.gotB, payload) {
		t.Fatalf("stream corrupted: got %d bytes want %d", len(f.gotB), len(payload))
	}
}

func TestFastRetransmit(t *testing.T) {
	// A single early loss in a large transfer should trigger fast
	// retransmit (3 dup acks) rather than waiting out the 1s RTO.
	sched := simclock.NewScheduler(t0)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, netem.LinkParams{Delay: 20 * time.Millisecond}, 5)
	aAddr := netem.Addr{Host: 1, Port: 22}
	bAddr := netem.Addr{Host: 2, Port: 22}
	var got []byte
	a := New(Config{Sched: sched, Link: path.Up, Local: aAddr, Remote: bAddr})
	b := New(Config{Sched: sched, Link: path.Down, Local: bAddr, Remote: aAddr,
		Deliver: func(d []byte) { got = append(got, d...) }})
	count, dropped := 0, false
	nw.Attach(aAddr, func(p netem.Packet) { a.Receive(p.Payload) })
	nw.Attach(bAddr, func(p netem.Packet) {
		count++
		if count == 3 && !dropped {
			dropped = true
			return // drop exactly one data segment
		}
		b.Receive(p.Payload)
	})
	data := bytes.Repeat([]byte("z"), 30000)
	a.Send(data)
	sched.RunFor(5 * time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %d bytes want %d", len(got), len(data))
	}
	if a.stats.FastRetransmits == 0 {
		t.Fatal("loss repaired without fast retransmit")
	}
	if a.stats.Timeouts > 0 {
		t.Fatal("RTO fired despite dup-ack availability")
	}
}

func TestBulkFlowFillsBottleneckQueue(t *testing.T) {
	// The bufferbloat mechanism behind the paper's LTE table: a bulk
	// transfer's cwnd growth fills the drop-tail buffer, adding seconds
	// of queueing delay for everyone sharing it.
	sched := simclock.NewScheduler(t0)
	nw := netem.NewNetwork(sched)
	down := netem.NewLink(nw, netem.LTE(), 9)
	up := netem.NewLink(nw, netem.LTE(), 10)
	aAddr := netem.Addr{Host: 1, Port: 80}
	bAddr := netem.Addr{Host: 2, Port: 80}
	// Bulk data flows "down" (server→client), acks flow "up"; the flow
	// uses CUBIC-style wall-clock growth like sshsim.BulkFlow.
	server := New(Config{Sched: sched, Link: down, Local: bAddr, Remote: aAddr,
		UseCubic: true})
	client := New(Config{Sched: sched, Link: up, Local: aAddr, Remote: bAddr})
	nw.Attach(bAddr, func(p netem.Packet) { server.Receive(p.Payload) })
	nw.Attach(aAddr, func(p netem.Packet) { client.Receive(p.Payload) })

	// Keep the bulk sender saturated.
	chunk := bytes.Repeat([]byte("B"), 64*1024)
	var feed func()
	feed = func() {
		// Keep well more data buffered than the bottleneck queue holds,
		// so cwnd growth (not the application) is the limit.
		if server.Buffered() < 8*1024*1024 {
			server.Send(chunk)
		}
		sched.AfterFunc(10*time.Millisecond, feed)
	}
	sched.AfterFunc(0, feed)
	sched.RunFor(30 * time.Second)

	maxQueue := down.Stats().MaxQueueBytes
	if maxQueue < netem.LTE().QueueBytes/2 {
		t.Fatalf("bulk flow filled only %d of %d queue bytes", maxQueue, netem.LTE().QueueBytes)
	}
	// The queueing delay corresponding to a full buffer at 8 Mbit/s is
	// multiple seconds — the paper's SSH-on-LTE latency.
	if qd := time.Duration(int64(maxQueue) * 8 * int64(time.Second) / netem.LTE().RateBitsPerSec); qd < time.Second {
		t.Fatalf("max queueing delay only %v", qd)
	}
}

func TestInteractiveLatencyUnderLossHasHugeTail(t *testing.T) {
	// The qualitative shape of the paper's loss table for SSH: median
	// okay, mean and σ huge, because a lost keystroke waits out 1s+
	// exponentially backed-off RTOs with no fast-retransmit rescue.
	f := newFixture(t, netem.LinkParams{Delay: 50 * time.Millisecond, LossProb: 0.29})
	var latencies []time.Duration
	sendAt := make(map[int]time.Time)
	delivered := 0
	f.b.cfg.Deliver = func(d []byte) {
		for range d {
			latencies = append(latencies, f.sched.Now().Sub(sendAt[delivered]))
			delivered++
		}
	}
	for i := 0; i < 200; i++ {
		i := i
		f.sched.AfterFunc(time.Duration(i)*250*time.Millisecond, func() {
			sendAt[i] = f.sched.Now()
			f.a.Send([]byte{byte(i)})
		})
	}
	f.sched.RunFor(10 * time.Minute)
	if len(latencies) != 200 {
		t.Fatalf("delivered %d of 200 keystrokes", len(latencies))
	}
	var max time.Duration
	var sum time.Duration
	for _, l := range latencies {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := sum / 200
	if max < 2*time.Second {
		t.Fatalf("max latency %v; expected multi-second RTO stalls", max)
	}
	if mean < 200*time.Millisecond {
		t.Fatalf("mean latency %v suspiciously low for 29%% loss", mean)
	}
}

// Pair wires two connection endpoints over a path: a's segments travel
// path.Up, b's travel path.Down.
func Pair(sched *simclock.Scheduler, net *netem.Network, path *netem.Path,
	aAddr, bAddr netem.Addr, aDeliver, bDeliver func([]byte)) (a, b *Conn) {
	a = New(Config{Sched: sched, Link: path.Up, Local: aAddr, Remote: bAddr, Deliver: aDeliver})
	b = New(Config{Sched: sched, Link: path.Down, Local: bAddr, Remote: aAddr, Deliver: bDeliver})
	net.Attach(aAddr, func(p netem.Packet) { a.Receive(p.Payload) })
	net.Attach(bAddr, func(p netem.Packet) { b.Receive(p.Payload) })
	return a, b
}
