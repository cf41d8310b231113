//go:build linux

package main

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/terminal"
	"repro/internal/transport"
	"repro/internal/udpbatch"
)

// The ladder decomposes one keystroke's server-side cost down the stack.
// Nested layers cannot be intercepted from outside the program, so a
// layer's self time is a ladder difference: the cumulative cost of the
// stack up to that layer minus the stack below it, each driven from this
// package on identical inputs (keystrokes, host-application output,
// datagram sizes) derived from the same seed. Rungs, top down:
//
//	sessiond   sync-mode daemon (HandleBatch/TickDue) under real core.Clients
//	core       a core.Server/core.Client pair
//	transport  mirror endpoints that make the same calls on a Transport pair
//	statesync, terminal, network, sspcrypto, ocb, udpbatch: direct loops (layers.go)
//
// The three simulated rungs run in virtual time on a simclock.Scheduler;
// spans are timed on the wall clock around each call made from here.

// simStart is the virtual epoch every ladder simulation starts at.
var simStart = time.Unix(1_700_000_000, 0)

const (
	// linkDelay is the one-way virtual delay between simulated endpoints:
	// loopback-like, and non-zero so replies are separate scheduler events.
	linkDelay = 50 * time.Microsecond
	// simLead is how long a simulation runs before the first keystroke, so
	// every client holds its first screen; simTail is how long it runs
	// after the last one, so echo acks and delayed acks drain.
	simLead = time.Second
	simTail = time.Second
)

// simCtx is what a simulated session's spans are filed under: the tracer,
// the session index and the keystroke the current activity belongs to.
type simCtx struct {
	t       *tracer
	session int
	key     int
}

func (c *simCtx) begin(name spanName) { c.t.begin(name, c.session, c.key) }
func (c *simCtx) end()                { c.t.end() }

// spannedEndpoint wraps an endpoint's timer entry points in spans so
// core.Pump can drive it.
type spannedEndpoint struct {
	ep         core.Endpoint
	ctx        *simCtx
	tick, wait spanName
}

func (s *spannedEndpoint) Tick() {
	s.ctx.begin(s.tick)
	s.ep.Tick()
	s.ctx.end()
}

func (s *spannedEndpoint) WaitTime() time.Duration {
	s.ctx.begin(s.wait)
	d := s.ep.WaitTime()
	s.ctx.end()
	return d
}

// serverEnd and clientEnd are what the pair simulation needs from the two
// endpoints; core.Server and core.Client satisfy them, and so do the
// mirrors built directly on a Transport pair.
type serverEnd interface {
	core.Endpoint
	Receive(wire []byte, src netem.Addr) error
	HostOutput(data []byte)
}

type clientEnd interface {
	core.Endpoint
	Receive(wire []byte, src netem.Addr) error
	UserBytes(data []byte) uint64
	ServerState() *terminal.Framebuffer
}

// rungNames selects which span names a pair simulation files its calls
// under: the core rung and the transport rung make the same sequence of
// calls and differ only in what is underneath.
type rungNames struct {
	srvReceive, srvTick, srvWait, srvHostOutput spanName
	cliUserBytes, cliReceive, cliTick, cliWait  spanName
}

// coreRung reports every endpoint-level call. The transport rung's mirrors
// record their own spans around the Transport calls inside, so the
// endpoint-level calls around them go unreported: the zero rungNames.
var coreRung = rungNames{spSrvReceive, spSrvTick, spSrvWaitTime, spSrvHostOutput, spCliUserBytes, spCliReceive, spCliTick, spCliWaitTime}

// pairStats is what one session's pair simulation counted besides spans.
type pairStats struct {
	srv, cli  transport.SenderStats
	outSizes  []int // server→client datagram sizes, in order
	inSizes   []int // client→server datagram sizes, in order
	finalHash [32]byte
}

// pairBuilder returns a session's two endpoints, wired to the given emit
// functions and host-input hook, and a reader for their sender counters.
type pairBuilder func(ctx *simCtx, sched *simclock.Scheduler, key sspcrypto.Key,
	toClient, toServer, hostInput func([]byte)) (serverEnd, clientEnd, func() (srv, cli transport.SenderStats))

// typist schedules one simulated session's keystrokes on sched: the first
// w.ladderKeys of its stream, open loop at the workload's gaps or, closed
// loop, each as soon as the previous one's echo is seen. It returns the
// virtual instant by which the last keystroke has been typed, and a hook
// the simulation calls after every datagram the client receives.
func typist(w *workload, seed int64, idx int, sched *simclock.Scheduler, typeKey func([]byte), echoed func() int) (last time.Time, afterReceive func()) {
	first := simStart.Add(simLead)
	if !w.closedLoop() {
		evs := w.schedule(seed, idx, time.Hour)[:w.ladderKeys]
		for _, ev := range evs {
			ev := ev
			sched.At(first.Add(ev.due), func() { typeKey(ev.data) })
		}
		return first.Add(evs[len(evs)-1].due), func() {}
	}
	ks := w.newKeyStream(seed, idx)
	sched.At(first, func() { typeKey(ks.next()) })
	// A closed loop turns around in well under 100 ms of virtual time.
	return first.Add(time.Duration(w.ladderKeys) * 100 * time.Millisecond), func() {
		if ks.n > 0 && ks.n < w.ladderKeys && echoed() >= ks.n {
			typeKey(ks.next())
		}
	}
}

// pairSim runs one session as a server/client endpoint pair in virtual
// time: the workload's keystrokes for that session, the markerApp the live
// server runs, and a loss-free link.
func pairSim(w *workload, seed int64, idx int, t *tracer, names rungNames, build pairBuilder) (pairStats, error) {
	// Rungs are compared by difference, so each starts from a collected
	// heap rather than inheriting the previous one's garbage.
	runtime.GC()
	sched := simclock.NewScheduler(simStart)
	ctx := &simCtx{t: t, session: idx}
	app := &markerApp{inner: w.newApp(seed, idx)}
	var st pairStats
	var key sspcrypto.Key
	if _, err := rand.Read(key[:]); err != nil {
		return st, err
	}

	var srv serverEnd
	var cli clientEnd
	var wakeSrv, wakeCli func()
	var pendingOut [][]byte
	addr := netem.Addr{Host: 1, Port: uint16(1000 + idx)}
	var afterReceive func()
	toClient := func(wire []byte) {
		st.outSizes = append(st.outSizes, len(wire))
		sched.AfterFunc(linkDelay, func() {
			ctx.begin(names.cliReceive)
			cli.Receive(wire, netem.Addr{})
			ctx.end()
			afterReceive()
			wakeCli()
		})
	}
	toServer := func(wire []byte) {
		st.inSizes = append(st.inSizes, len(wire))
		sched.AfterFunc(linkDelay, func() {
			ctx.begin(names.srvReceive)
			srv.Receive(wire, addr)
			ctx.end()
			// As sessiond does: host responses queued during Receive are
			// written to the terminal right after it.
			for _, out := range pendingOut {
				ctx.begin(names.srvHostOutput)
				srv.HostOutput(out)
				ctx.end()
			}
			pendingOut = pendingOut[:0]
			wakeSrv()
		})
	}
	hostInput := func(data []byte) {
		ctx.begin(spApp)
		out, _ := app.Input(data)
		ctx.end()
		pendingOut = append(pendingOut, out)
	}
	srv, cli, stats := build(ctx, sched, key, toClient, toServer, hostInput)
	srv.HostOutput(app.Start())
	wakeSrv = core.Pump(sched, &spannedEndpoint{ep: srv, ctx: ctx, tick: names.srvTick, wait: names.srvWait})
	wakeCli = core.Pump(sched, &spannedEndpoint{ep: cli, ctx: ctx, tick: names.cliTick, wait: names.cliWait})

	var last time.Time
	last, afterReceive = typist(w, seed, idx, sched, func(data []byte) {
		ctx.key++
		ctx.begin(names.cliUserBytes)
		cli.UserBytes(data)
		ctx.end()
		wakeCli()
	}, func() int { return markerCount(cli.ServerState().Title) })
	// Counters and sizes cover the keystrokes only, not the introduction.
	var srv0, cli0 transport.SenderStats
	sched.At(simStart.Add(simLead), func() {
		srv0, cli0 = stats()
		st.outSizes, st.inSizes = st.outSizes[:0], st.inSizes[:0]
	})
	sched.RunUntil(last.Add(simTail))
	if got := markerCount(cli.ServerState().Title); got != w.ladderKeys {
		return st, fmt.Errorf("ladder: session %d echoed %d of %d keystrokes", idx, got, w.ladderKeys)
	}
	srv1, cli1 := stats()
	st.srv, st.cli = subStats(srv1, srv0), subStats(cli1, cli0)
	st.finalHash = frameHash(cli.ServerState())
	return st, nil
}

func subStats(a, b transport.SenderStats) transport.SenderStats {
	return transport.SenderStats{
		Instructions: a.Instructions - b.Instructions,
		EmptyAcks:    a.EmptyAcks - b.EmptyAcks,
		Fragments:    a.Fragments - b.Fragments,
		DiffBytes:    a.DiffBytes - b.DiffBytes,
		Suppressed:   a.Suppressed - b.Suppressed,
	}
}

func addStats(a, b transport.SenderStats) transport.SenderStats {
	return transport.SenderStats{
		Instructions: a.Instructions + b.Instructions,
		EmptyAcks:    a.EmptyAcks + b.EmptyAcks,
		Fragments:    a.Fragments + b.Fragments,
		DiffBytes:    a.DiffBytes + b.DiffBytes,
		Suppressed:   a.Suppressed + b.Suppressed,
	}
}

// buildCore wires a real core.Server/core.Client pair: the core rung.
func buildCore(w *workload) pairBuilder {
	return func(_ *simCtx, sched *simclock.Scheduler, key sspcrypto.Key, toClient, toServer, hostInput func([]byte)) (serverEnd, clientEnd, func() (transport.SenderStats, transport.SenderStats)) {
		srv, err := core.NewServer(core.ServerConfig{
			Key: key, Clock: sched, Width: w.w, Height: w.h,
			Emit: toClient, HostInput: hostInput,
		})
		if err != nil {
			panic(err) // a well-formed key and size cannot fail
		}
		srv.Terminal().Framebuffer().SetScrollbackLimit(-1) // as sessiond sets it
		cli, err := core.NewClient(core.ClientConfig{
			Key: key, Clock: sched, Width: w.w, Height: w.h,
			Predictions: overlay.Never, Emit: toServer,
		})
		if err != nil {
			panic(err)
		}
		return srv, cli, func() (transport.SenderStats, transport.SenderStats) {
			return srv.Transport().Sender().Stats(), cli.Transport().Sender().Stats()
		}
	}
}

// mirrorServer makes the calls core.Server makes, on a bare Transport, with
// a span around each: the rung below core. The traced run checks that it
// put exactly the datagrams on the wire that core.Server did, so the mirror
// cannot drift from core unnoticed.
type mirrorServer struct {
	tr        *transport.Transport[*statesync.Complete, *statesync.UserStream]
	clock     simclock.Clock
	ctx       *simCtx
	hostInput func([]byte)

	processed uint64
	echoQueue []mirrorEcho
}

type mirrorEcho struct {
	num uint64
	at  time.Time
}

func (s *mirrorServer) trTick() {
	s.ctx.begin(spTrTick)
	s.tr.Tick()
	s.ctx.end()
}

func (s *mirrorServer) Receive(wire []byte, src netem.Addr) error {
	s.ctx.begin(spTrReceive)
	isNew, err := s.tr.Receive(wire, src)
	s.ctx.end()
	if err != nil || !isNew {
		return err
	}
	stream := s.tr.RemoteState()
	for _, ev := range stream.EventsSince(s.processed) {
		if ev.Type == statesync.EventBytes {
			s.hostInput(ev.Data)
		}
	}
	s.processed = stream.Size()
	s.echoQueue = append(s.echoQueue, mirrorEcho{num: s.tr.RemoteStateNum(), at: s.clock.Now()})
	s.Tick()
	return nil
}

func (s *mirrorServer) HostOutput(data []byte) {
	s.ctx.begin(spEmuWrite)
	s.tr.CurrentState().Terminal().Write(data)
	s.ctx.end()
	s.trTick()
}

func (s *mirrorServer) Tick() {
	now := s.clock.Now()
	for len(s.echoQueue) > 0 && now.Sub(s.echoQueue[0].at) >= core.DefaultEchoAckTimeout {
		s.tr.CurrentState().SetEchoAck(s.echoQueue[0].num)
		s.echoQueue = s.echoQueue[1:]
	}
	s.trTick()
}

func (s *mirrorServer) WaitTime() time.Duration {
	s.ctx.begin(spTrWaitTime)
	w := s.tr.WaitTime()
	s.ctx.end()
	if len(s.echoQueue) > 0 {
		d := core.DefaultEchoAckTimeout - s.clock.Now().Sub(s.echoQueue[0].at)
		if d < 0 {
			d = 0
		}
		if d < w {
			w = d
		}
	}
	return w
}

// mirrorClient is the client half of the transport rung. Only the
// UserStream push is spanned: the budget is the server's.
type mirrorClient struct {
	tr  *transport.Transport[*statesync.UserStream, *statesync.Complete]
	ctx *simCtx
}

func (c *mirrorClient) Receive(wire []byte, src netem.Addr) error {
	_, err := c.tr.Receive(wire, src)
	return err
}

func (c *mirrorClient) UserBytes(data []byte) uint64 {
	c.ctx.begin(spUserPush)
	c.tr.CurrentState().PushBytes(data)
	c.ctx.end()
	c.tr.Tick()
	return c.tr.CurrentState().Size()
}

func (c *mirrorClient) ServerState() *terminal.Framebuffer {
	return c.tr.RemoteState().Framebuffer()
}
func (c *mirrorClient) Tick()                   { c.tr.Tick() }
func (c *mirrorClient) WaitTime() time.Duration { return c.tr.WaitTime() }

// buildMirror wires the mirror endpoints on a Transport pair: the
// transport rung.
func buildMirror(w *workload) pairBuilder {
	return func(ctx *simCtx, sched *simclock.Scheduler, key sspcrypto.Key, toClient, toServer, hostInput func([]byte)) (serverEnd, clientEnd, func() (transport.SenderStats, transport.SenderStats)) {
		st, err := transport.New(transport.Config[*statesync.Complete, *statesync.UserStream]{
			Direction: sspcrypto.ToClient, Key: key, Clock: sched,
			LocalInitial: statesync.NewComplete(w.w, w.h), RemoteInitial: statesync.NewUserStream(),
			Emit: toClient,
		})
		if err != nil {
			panic(err)
		}
		st.CurrentState().Framebuffer().SetScrollbackLimit(-1)
		ct, err := transport.New(transport.Config[*statesync.UserStream, *statesync.Complete]{
			Direction: sspcrypto.ToServer, Key: key, Clock: sched,
			LocalInitial: statesync.NewUserStream(), RemoteInitial: statesync.NewComplete(w.w, w.h),
			Emit: toServer,
		})
		if err != nil {
			panic(err)
		}
		ct.Sender().ForceAckSoon()
		return &mirrorServer{tr: st, clock: sched, ctx: ctx, hostInput: hostInput},
			&mirrorClient{tr: ct, ctx: ctx},
			func() (transport.SenderStats, transport.SenderStats) {
				return st.Sender().Stats(), ct.Sender().Stats()
			}
	}
}

// daemonSim is the sessiond rung: one sync-mode daemon (HandleBatch and
// TickDue driven from the scheduler, replies through Config.Send) under
// real core.Clients. Client datagrams reach the daemon in batches clustered
// on a 1 ms delivery quantum — internal/bench's model of a busy reader
// finding several datagrams queued — so HandleBatch sees batches, and the
// modeled syscall accounting (Config.IOModel) has something to batch.
type daemonSim struct {
	sched   *simclock.Scheduler
	d       *sessiond.Daemon
	t       *tracer
	ctxs    []*simCtx
	clients []*core.Client
	last    time.Time // when the last keystroke has been typed

	// bursts are the datagram sizes of each egress sweep (one HandleBatch
	// or TickDue call's emissions) and each ingress batch.
	outBursts, inBursts [][]int
	curBurst            []int
}

const deliveryQuantum = time.Millisecond

// newDaemonSim builds the daemon and n sessions of w and schedules their
// keystrokes. t may be nil (no spans: the model reconciliation run).
func newDaemonSim(w *workload, seed int64, n int, t *tracer, model sessiond.IOModel, stateDir string) (*daemonSim, error) {
	if t == nil {
		t = newTracer(0)
	}
	sim := &daemonSim{sched: simclock.NewScheduler(simStart), t: t}
	sched := sim.sched
	deliver := make([]func(wire []byte), n)
	d, err := sessiond.New(sessiond.Config{
		Clock: sched,
		NewApp: func(id uint64) host.App {
			ctx := sim.ctxs[id-1]
			return &markerApp{inner: w.newApp(seed, int(id)-1), around: func(input func()) {
				ctx.begin(spApp)
				input()
				ctx.end()
			}}
		},
		IdleTimeout: -1,
		Width:       w.w,
		Height:      w.h,
		IOModel:     model,
		StateDir:    stateDir,
		Send: func(dst netem.Addr, wire []byte) {
			sim.curBurst = append(sim.curBurst, len(wire))
			sched.AfterFunc(linkDelay, func() { deliver[dst.Port](wire) })
		},
	})
	if err != nil {
		return nil, err
	}
	sim.d = d

	endBurst := func() {
		if len(sim.curBurst) > 0 {
			sim.outBursts = append(sim.outBursts, sim.curBurst)
			sim.curBurst = nil
		}
	}
	// The daemon's pump: Daemon.Pump with a span around TickDue.
	var pump func()
	timer := sched.NewEventTimer(func() { pump() })
	pump = func() {
		t.begin(spTickDue, -1, 0)
		d.TickDue()
		t.end()
		endBurst()
		if at, ok := d.NextDeadline(); ok {
			timer.Reset(at)
		}
	}
	sched.AfterFunc(0, pump)

	var ingress []udpbatch.Message
	flush := func() {
		msgs := ingress
		ingress = nil
		sizes := make([]int, len(msgs))
		for i := range msgs {
			sizes[i] = len(msgs[i].Buf)
		}
		sim.inBursts = append(sim.inBursts, sizes)
		t.begin(spHandleBatch, -1, 0)
		d.HandleBatch(msgs)
		t.end()
		endBurst()
		pump()
	}

	for idx := 0; idx < n; idx++ {
		idx := idx
		ctx := &simCtx{t: t, session: idx}
		sim.ctxs = append(sim.ctxs, ctx)
		sess, err := d.OpenSession()
		if err != nil {
			return nil, err
		}
		addr := netem.Addr{Host: 1, Port: uint16(idx)}
		var cli *core.Client
		cli, err = core.NewClient(core.ClientConfig{
			Key: sess.Key(), Clock: sched, Width: w.w, Height: w.h,
			Envelope:    &network.Envelope{ID: sess.ID},
			Predictions: overlay.Never,
			Emit: func(wire []byte) {
				if len(ingress) == 0 {
					at := sched.Now().Add(linkDelay).Truncate(deliveryQuantum).Add(deliveryQuantum)
					sched.At(at, flush)
				}
				ingress = append(ingress, udpbatch.Message{Buf: wire, Addr: addr})
			},
		})
		if err != nil {
			return nil, err
		}
		sim.clients = append(sim.clients, cli)
		wake := core.Pump(sched, &spannedEndpoint{ep: cli, ctx: ctx, tick: spCliTick, wait: spCliWaitTime})
		var afterReceive func()
		deliver[idx] = func(wire []byte) {
			ctx.begin(spCliReceive)
			cli.Receive(wire, netem.Addr{})
			ctx.end()
			afterReceive()
			wake()
		}
		var last time.Time
		last, afterReceive = typist(w, seed, idx, sched, func(data []byte) {
			ctx.key++
			ctx.begin(spCliUserBytes)
			cli.UserBytes(data)
			ctx.end()
			wake()
		}, func() int { return markerCount(cli.ServerState().Title) })
		if last.After(sim.last) {
			sim.last = last
		}
	}
	return sim, nil
}

// checkEchoed verifies every simulated session saw all its keystrokes.
func (sim *daemonSim) checkEchoed(want int) error {
	for idx, cli := range sim.clients {
		if got := markerCount(cli.ServerState().Title); got != want {
			return fmt.Errorf("ladder: daemon session %d echoed %d of %d keystrokes", idx, got, want)
		}
	}
	return nil
}
