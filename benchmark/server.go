//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/host"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/udpbatch"
)

// childEnv carries the server child's configuration. The child is this
// same executable re-run with "-server"; passing the configuration through
// the environment keeps the child's command line empty, so the test binary
// can play the server too without its flag set colliding with ours.
const childEnv = "MOSH_BENCHMARK_CHILD"

// childConfig is what the parent tells the server child.
type childConfig struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Sessions int    `json:"sessions"`
	Provider string `json:"provider"`
	// Traced installs the timing decorators around the udpbatch.Conn and
	// the host applications. Never set for a timed run.
	Traced bool `json:"traced"`
}

// snapshot is the server child's reply to a "snap" command: cumulative
// counters the parent differences over a window, plus the stage-latency
// quantiles accumulated since the last "reset".
type snapshot struct {
	PacketsIn, PacketsOut int64
	BytesIn, BytesOut     int64
	ReadCalls, WriteCalls int64
	DropsQueueFull        int64
	DropsEgressFull       int64
	DropsAuth             int64
	EgressWriteErrors     int64

	// Stage quantiles in microseconds since the last reset.
	QueueWaitP50, QueueWaitP99   float64
	EgressWaitP50, EgressWaitP99 float64
	ApplyP50, TickP50            float64

	// Go runtime counters (cumulative).
	AllocObjects, AllocBytes uint64
	GCCPUSeconds             float64

	// Decorator counters (traced children only; cumulative).
	ConnReads, ConnReadDgrams   int64
	ConnWrites, ConnWriteDgrams int64
	ConnWriteNs, ConnWriteErrs  int64
	AppNs, AppCalls             int64
}

// timedConn is the benchmark-owned decorator around the udpbatch.Conn the
// daemon serves: it counts and times batch calls from outside the program.
// It forwards the optional provider capabilities the daemon discovers by
// type assertion, so the served connection behaves exactly as undecorated.
type timedConn struct {
	inner udpbatch.Conn

	reads, readDgrams   atomic.Int64
	writes, writeDgrams atomic.Int64
	writeNs, writeErrs  atomic.Int64
}

func (t *timedConn) ReadBatch(msgs []udpbatch.Message) (int, error) {
	n, err := t.inner.ReadBatch(msgs)
	if n > 0 {
		t.reads.Add(1)
		t.readDgrams.Add(int64(n))
	}
	return n, err
}

func (t *timedConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	start := time.Now()
	n, err := t.inner.WriteBatch(msgs)
	t.writeNs.Add(int64(time.Since(start)))
	t.writes.Add(1)
	t.writeDgrams.Add(int64(n))
	if err != nil {
		t.writeErrs.Add(1)
	}
	return n, err
}

func (t *timedConn) BatchCap() int        { return t.inner.BatchCap() }
func (t *timedConn) ProviderName() string { return udpbatch.ProviderName(t.inner) }
func (t *timedConn) ReadSlotSize() int    { return udpbatch.ReadSlotSize(t.inner, 0) }

func (t *timedConn) Close() error {
	if c, ok := t.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Traversals forwards the provider's own meter when it has one; otherwise
// it reports one traversal per datagram, which is what the daemon would
// have assumed for an undecorated connection.
func (t *timedConn) Traversals() (in, out int64) {
	if tc, ok := t.inner.(udpbatch.TraversalCounter); ok {
		return tc.Traversals()
	}
	return t.readDgrams.Load(), t.writeDgrams.Load()
}

// serverMain is the server child: one sessiond daemon on one loopback UDP
// socket, wired exactly as cmd/mosh-server wires it (real clock, recycled
// wire buffers, default Config otherwise, no idle eviction) except that
// application seeds are fixed functions of the run seed and every
// application is wrapped in a markerApp. It prints one MOSH CONNECT line
// per session, then READY, then serves until its stdin closes.
func serverMain() error {
	var cfg childConfig
	if err := json.Unmarshal([]byte(os.Getenv(childEnv)), &cfg); err != nil {
		return fmt.Errorf("server child: %s: %w", childEnv, err)
	}
	w := findWorkload(cfg.Workload)
	if w == nil {
		return fmt.Errorf("server child: unknown workload %q", cfg.Workload)
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	port := conn.LocalAddr().(*net.UDPAddr).Port

	var appNs, appCalls atomic.Int64
	d, err := sessiond.New(sessiond.Config{
		Clock: simclock.Real{},
		NewApp: func(id uint64) host.App {
			m := &markerApp{inner: w.newApp(cfg.Seed, int(id)-1)}
			if cfg.Traced {
				m.around = func(input func()) {
					start := time.Now()
					input()
					appNs.Add(int64(time.Since(start)))
					appCalls.Add(1)
				}
			}
			return m
		},
		Capacity:    cfg.Sessions,
		IdleTimeout: -1,
		RecycleWire: true,
		Width:       w.w,
		Height:      w.h,
	})
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	for i := 0; i < cfg.Sessions; i++ {
		s, err := d.OpenSession()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "MOSH CONNECT %d %s %d\n", port, s.Key().Base64(), s.ID)
	}
	bc, err := udpbatch.NewUDPConnProvider(conn, cfg.Provider)
	if err != nil {
		return fmt.Errorf("udp provider %q: %w", cfg.Provider, err)
	}
	var tc *timedConn
	if cfg.Traced {
		tc = &timedConn{inner: bc}
		bc = tc
	}
	fmt.Fprintf(out, "READY %s\n", udpbatch.ProviderName(bc))
	if err := out.Flush(); err != nil {
		return err
	}

	served := make(chan error, 1)
	go func() { served <- d.ServeBatch(bc) }()

	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	us := func(st telemetry.Stage, q float64) float64 {
		return float64(d.Pipeline().Stage(st).Quantile(q)) / 1e3
	}
	enc := json.NewEncoder(os.Stdout)
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "reset":
			d.Pipeline().Reset()
		case "snap":
			m := d.Metrics()
			metrics.Read(samples)
			snap := snapshot{
				PacketsIn: m.PacketsIn.Value(), PacketsOut: m.PacketsOut.Value(),
				BytesIn: m.BytesIn.Value(), BytesOut: m.BytesOut.Value(),
				ReadCalls: m.ReadBatchCalls.Value(), WriteCalls: m.WriteBatchCalls.Value(),
				DropsQueueFull:    m.DropsQueueFull.Value(),
				DropsEgressFull:   m.DropsEgressFull.Value(),
				DropsAuth:         m.DropsAuth.Value(),
				EgressWriteErrors: m.EgressWriteErrors.Value(),
				QueueWaitP50:      us(telemetry.StageQueueWait, 0.50),
				QueueWaitP99:      us(telemetry.StageQueueWait, 0.99),
				EgressWaitP50:     us(telemetry.StageEgressWait, 0.50),
				EgressWaitP99:     us(telemetry.StageEgressWait, 0.99),
				ApplyP50:          us(telemetry.StageApply, 0.50),
				TickP50:           us(telemetry.StageTick, 0.50),
				AllocObjects:      samples[0].Value.Uint64(),
				AllocBytes:        samples[1].Value.Uint64(),
				GCCPUSeconds:      samples[2].Value.Float64(),
				AppNs:             appNs.Load(),
				AppCalls:          appCalls.Load(),
			}
			if tc != nil {
				snap.ConnReads, snap.ConnReadDgrams = tc.reads.Load(), tc.readDgrams.Load()
				snap.ConnWrites, snap.ConnWriteDgrams = tc.writes.Load(), tc.writeDgrams.Load()
				snap.ConnWriteNs, snap.ConnWriteErrs = tc.writeNs.Load(), tc.writeErrs.Load()
			}
			if err := enc.Encode(&snap); err != nil {
				return err
			}
		}
	}
	// stdin closed: the parent is done with us (or gone).
	d.Close()
	return <-served
}
