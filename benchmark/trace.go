//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/sessiond"
)

// spanKeep bounds how many spans each rung retains for the span file; the
// totals behind the metrics cover every call either way.
const spanKeep = 40000

// budgetRow is one line of the budget table: a layer's server-side self
// time per keystroke, and how it was obtained.
type budgetRow struct {
	Layer string  `json:"layer"`
	SelfU float64 `json:"self_us_per_keystroke"`
	How   string  `json:"how"`
}

// modelRow is the model reconciliation: the live rung's measured socket
// figures beside sessiond.Config.IOModel's prediction for the same rung and
// session count.
type modelRow struct {
	Rung                  string  `json:"rung"`
	Sessions              int     `json:"sessions"`
	MeasuredSyscallsPerDg float64 `json:"measured_syscalls_per_dgram"`
	ModelSyscallsPerDg    float64 `json:"model_syscalls_per_dgram"`
	MeasuredDgramsPerWr   float64 `json:"measured_dgrams_per_write"`
	ModelDgramsPerWr      float64 `json:"model_dgrams_per_write"`
}

// spanFile is what a traced run leaves in <out>/trace-<workload>.json.
type spanFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Rungs    map[string][]span `json:"rungs"`
}

// ladderResult is everything the ladder replay measured.
type ladderResult struct {
	keys               int // keystrokes each simulated rung typed
	daemon, core, mirr *tracer
	coreStats          pairStats // summed over the ladder sessions
	crypto             cryptoCosts
	screens            screenCosts
	socks              map[string]sockCosts
	journalFlushMs     float64
	residentPerSession float64
	spans              map[string][]span
}

// runLadder replays the workload's first ladderSessions sessions through
// every rung.
func runLadder(w *workload, seed int64, outDir string) (*ladderResult, error) {
	res := &ladderResult{
		keys:   w.ladderSessions * w.ladderKeys,
		daemon: newTracer(spanKeep), core: newTracer(spanKeep), mirr: newTracer(spanKeep),
		socks: map[string]sockCosts{},
		spans: map[string][]span{},
	}
	res.core.countAllocs = true

	// sessiond rung.
	sim, err := newDaemonSim(w, seed, w.ladderSessions, res.daemon, sessiond.IOModelMMsg, "")
	if err != nil {
		return nil, err
	}
	sim.sched.RunUntil(sim.last.Add(simTail))
	if err := sim.checkEchoed(w.ladderKeys); err != nil {
		return nil, err
	}
	res.residentPerSession = float64(sim.d.ScreenStateStats().ResidentBytesPerSession())
	outBursts, inBursts := sim.outBursts, sim.inBursts
	sim.d.Close()
	res.spans["sessiond"] = res.daemon.spans

	// core and transport rungs, one session at a time; the transport
	// mirror must put the same traffic on the wire as core did.
	for idx := 0; idx < w.ladderSessions; idx++ {
		cs, err := pairSim(w, seed, idx, res.core, coreRung, buildCore(w))
		if err != nil {
			return nil, err
		}
		ms, err := pairSim(w, seed, idx, res.mirr, rungNames{}, buildMirror(w))
		if err != nil {
			return nil, err
		}
		if cs.srv != ms.srv || cs.cli != ms.cli || cs.finalHash != ms.finalHash {
			return nil, fmt.Errorf("ladder: session %d: the transport mirror diverged from core (server %+v vs %+v, client %+v vs %+v)",
				idx, ms.srv, cs.srv, ms.cli, cs.cli)
		}
		res.coreStats.srv = addStats(res.coreStats.srv, cs.srv)
		res.coreStats.cli = addStats(res.coreStats.cli, cs.cli)
		res.coreStats.outSizes = append(res.coreStats.outSizes, cs.outSizes...)
		res.coreStats.inSizes = append(res.coreStats.inSizes, cs.inSizes...)
	}
	res.spans["core"] = res.core.spans
	res.spans["transport"] = res.mirr.spans

	// Direct loops.
	layers := newTracer(spanKeep)
	if res.crypto, err = measureCrypto(layers, res.coreStats.outSizes, res.coreStats.inSizes); err != nil {
		return nil, err
	}
	res.screens = measureScreens(w, seed, layers)
	res.spans["layers"] = layers.spans
	for _, r := range rungs {
		t := newTracer(spanKeep / 8)
		sc, err := measureSocket(t, r.provider, outBursts, inBursts)
		if err != nil {
			return nil, err
		}
		res.socks[r.metric] = sc
		res.spans["udpbatch."+r.metric] = t.spans
	}

	// The journal: the same daemon simulation with a state directory; the
	// first flush writes the checkpoint, the timed one the steady-state
	// increment after a further stretch of typing.
	stateDir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	jt := newTracer(16)
	jsim, err := newDaemonSim(w, seed, w.ladderSessions, nil, sessiond.IOModelMMsg, stateDir)
	if err != nil {
		return nil, err
	}
	jsim.sched.RunUntil(simStart.Add(simLead + jsim.last.Sub(simStart.Add(simLead))/2))
	if err := jsim.d.FlushJournal(); err != nil {
		return nil, err
	}
	jsim.sched.RunUntil(jsim.last.Add(simTail))
	jt.begin(spJournalFlush, -1, 0)
	err = jsim.d.FlushJournal()
	jt.end()
	if err != nil {
		return nil, err
	}
	jsim.d.Close()
	res.journalFlushMs = float64(jt.total[spJournalFlush]) / 1e6
	res.spans["journal"] = jt.spans
	return res, nil
}

// modelPrediction runs the daemon simulation at the live session count with
// IOModel set to the live rung and reads the modeled syscall accounting.
func modelPrediction(w *workload, seed int64, sessions int, rung string) (syscallsPerDgram, dgramsPerWrite float64, err error) {
	model, err := sessiond.ParseIOModel(rung)
	if err != nil {
		return 0, 0, err
	}
	// A short stretch is enough: the accounting is a ratio of counts.
	short := *w
	short.ladderKeys = 12
	sim, err := newDaemonSim(&short, seed, sessions, nil, model, "")
	if err != nil {
		return 0, 0, err
	}
	sim.sched.RunUntil(simStart.Add(simLead))
	m := sim.d.Metrics()
	pk0 := m.PacketsIn.Value() + m.PacketsOut.Value()
	sc0 := m.ReadBatchCalls.Value() + m.WriteBatchCalls.Value()
	po0, wc0 := m.PacketsOut.Value(), m.WriteBatchCalls.Value()
	sim.sched.RunUntil(sim.last.Add(simTail))
	if err := sim.checkEchoed(short.ladderKeys); err != nil {
		return 0, 0, err
	}
	pk := m.PacketsIn.Value() + m.PacketsOut.Value() - pk0
	sc := m.ReadBatchCalls.Value() + m.WriteBatchCalls.Value() - sc0
	po, wc := m.PacketsOut.Value()-po0, m.WriteBatchCalls.Value()-wc0
	sim.d.Close()
	return ratio(float64(sc), float64(pk)), ratio(float64(po), float64(wc)), nil
}

// runTraced is the traced run: an untraced and a traced live window (whose
// CPU difference is the tracing overhead), the ladder replay, the model
// reconciliation and the budget table. End-to-end numbers are never taken
// from it.
func runTraced(o runOpts, outDir string) (*workloadReport, error) {
	// The live windows share the run's time with the ladder.
	o.seconds /= 4
	o.setups = 1
	o.traced = false
	plain, err := runLive(o)
	if err != nil {
		return nil, err
	}
	o.traced = true
	traced, err := runLive(o)
	if err != nil {
		return nil, err
	}
	lad, err := runLadder(o.w, o.seed, outDir)
	if err != nil {
		return nil, err
	}
	rung := plain.provider
	modelSys, modelWr, err := modelPrediction(o.w, o.seed, o.sessionCount(), rung)
	if err != nil {
		return nil, err
	}

	rep := newWorkloadReport(o, plain)
	rep.Correct = correct(o, plain) && correct(o, traced)
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed()
	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.Name == name {
				rep.Metrics[name] = value{Value: v, Unit: m.Unit}
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}

	// ---- ladder ----
	keys := float64(lad.keys)
	c := lad.crypto
	set("ocb.seal_ns_per_dgram", c.ocbSeal.ns)
	set("ocb.open_ns_per_dgram", c.ocbOpen.ns)
	set("sspcrypto.seal_ns_per_dgram", c.sspSeal.ns)
	set("sspcrypto.open_ns_per_dgram", c.sspOpen.ns)
	set("sspcrypto.allocs_per_dgram", (c.sspSeal.allocs+c.sspOpen.allocs)/2)
	set("network.send_ns_per_dgram", c.networkSend.ns)
	set("network.recv_ns_per_dgram", c.networkRecv.ns)
	set("network.allocs_per_dgram", (c.networkSend.allocs+c.networkRecv.allocs)/2)

	srvStats, cliStats := lad.coreStats.srv, lad.coreStats.cli
	outPerKey := float64(srvStats.Fragments) / keys
	inPerKey := float64(cliStats.Fragments) / keys
	framesPerKey := float64(srvStats.Instructions) / keys
	set("transport.dgrams_per_keystroke", outPerKey+inPerKey)
	set("transport.fragments_per_frame", ratio(float64(srvStats.Fragments-srvStats.EmptyAcks), float64(srvStats.Instructions)))
	set("transport.diff_bytes_per_keystroke", float64(srvStats.DiffBytes+cliStats.DiffBytes)/keys)
	set("transport.empty_acks_per_keystroke", float64(srvStats.EmptyAcks+cliStats.EmptyAcks)/keys)

	s := lad.screens
	set("statesync.diff_ns_per_frame", s.stateDiff)
	set("statesync.apply_ns_per_frame", s.stateApply)
	set("statesync.clone_ns_per_frame", s.stateClone)
	set("statesync.userstream_ns_per_keystroke", s.userDiff+s.userApply)
	set("terminal.emu_write_ns_per_keystroke", s.emuWrite)
	set("terminal.frame_diff_ns_per_frame", s.frameDiff)
	set("terminal.frame_apply_ns_per_frame", s.frameApply)
	set("terminal.allocs_per_keystroke", s.terminalAllocs)
	set("overlay.predict_ns_per_keystroke", s.overlayPredict)

	perKey := func(t *tracer, names ...spanName) float64 {
		var ns int64
		for _, n := range names {
			ns += t.total[n]
		}
		return float64(ns) / keys
	}
	coreServer := perKey(lad.core, spSrvReceive, spSrvTick, spSrvHostOutput, spSrvWaitTime) - perKey(lad.core, spApp)
	coreClient := perKey(lad.core, spCliUserBytes, spCliReceive, spCliTick, spCliWaitTime)
	transportServer := perKey(lad.mirr, spTrReceive, spTrTick, spTrWaitTime)
	emuWrite := perKey(lad.mirr, spEmuWrite)
	coreSelf := coreServer - transportServer - emuWrite
	set("core.server_ns_per_keystroke", coreServer)
	set("core.client_ns_per_keystroke", coreClient)
	set("core.server_self_ns_per_keystroke", coreSelf)
	a := &lad.core.allocs
	set("core.allocs_per_keystroke", float64(a[spSrvReceive]+a[spSrvTick]+a[spSrvHostOutput]+a[spSrvWaitTime]-a[spApp])/keys)

	// What the transport calls spent in the layers below, from the direct
	// loops: sealing and opening the server's datagrams, and diffing,
	// snapshotting and applying the synchronized objects.
	networkPerKey := c.networkSend.ns*outPerKey + c.networkRecv.ns*inPerKey
	statesyncPerKey := (s.stateDiff+s.stateClone)*framesPerKey + s.userApply
	transportSelf := transportServer - networkPerKey - statesyncPerKey
	set("transport.self_ns_per_keystroke", transportSelf)

	ingest := float64(lad.daemon.total[spHandleBatch]) / keys
	tick := float64(lad.daemon.total[spTickDue]) / keys
	app := float64(lad.daemon.total[spApp]) / keys
	daemonSelf := ingest + tick - app - coreServer
	set("sessiond.ingest_ns_per_keystroke", ingest)
	set("sessiond.tick_ns_per_keystroke", tick)
	set("sessiond.self_ns_per_keystroke", daemonSelf)
	set("sessiond.journal_flush_ms", lad.journalFlushMs)
	set("sessiond.resident_bytes_per_session", lad.residentPerSession)

	for _, r := range rungs {
		sc := lad.socks[r.metric]
		set("udpbatch."+r.metric+".write_ns_per_dgram", sc.writeNs)
		set("udpbatch."+r.metric+".read_ns_per_dgram", sc.readNs)
		set("udpbatch."+r.metric+".traversals_per_dgram", sc.traversals)
	}

	// ---- live, untraced window ----
	end := len(plain.bounds) - 1
	first, last := plain.snaps[0], plain.snaps[end]
	inWindow, window := plain.span(0, end)
	echoes := float64(len(inWindow))
	lat := latenciesMs(inWindow)
	cpu0, cpu1 := plain.cpu[0], plain.cpu[end]
	cpu := cpu1.total() - cpu0.total()
	dgrams := float64(last.PacketsIn + last.PacketsOut - first.PacketsIn - first.PacketsOut)
	measuredSys := ratio(float64(last.ReadCalls+last.WriteCalls-first.ReadCalls-first.WriteCalls), dgrams)
	set("sessiond.syscalls_per_dgram", measuredSys)
	set("sessiond.stage_queue_wait_p50_us", last.QueueWaitP50)
	set("sessiond.stage_queue_wait_p99_us", last.QueueWaitP99)
	set("sessiond.stage_egress_wait_p50_us", last.EgressWaitP50)
	set("sessiond.stage_egress_wait_p99_us", last.EgressWaitP99)
	set("sessiond.stage_apply_p50_us", last.ApplyP50)
	set("sessiond.stage_tick_p50_us", last.TickP50)
	set("sessiond.drops_queue_full", float64(last.DropsQueueFull-first.DropsQueueFull))
	set("sessiond.drops_egress_full", float64(last.DropsEgressFull-first.DropsEgressFull))
	set("sessiond.drops_auth", float64(plain.authDrops+traced.authDrops))
	cpuPerKey := ratio(float64(cpu.Nanoseconds()), echoes)
	set("server.cpu_us_per_keystroke", cpuPerKey/1e3)
	set("server.cpu_util", cpu.Seconds()/window.Seconds())
	set("server.sys_cpu_frac", ratio(float64(cpu1.sys-cpu0.sys), float64(cpu)))
	set("server.gc_cpu_frac", ratio(last.GCCPUSeconds-first.GCCPUSeconds, cpu.Seconds()))
	set("server.allocs_per_keystroke", ratio(float64(last.AllocObjects-first.AllocObjects), echoes))
	set("server.alloc_bytes_per_keystroke", ratio(float64(last.AllocBytes-first.AllocBytes), echoes))
	set("client.echo_p95_ms", percentile(lat, 0.95))
	set("client.echo_p99_ms", percentile(lat, 0.99))
	set("client.echo_p999_ms", percentile(lat, 0.999))
	set("client.echo_samples", echoes)
	set("loadgen.cpu_util", plain.genCPU.Seconds()/window.Seconds())
	late := make([]float64, len(plain.late))
	for i, l := range plain.late {
		late[i] = float64(l) / 1e6
	}
	sort.Float64s(late)
	set("loadgen.late_p99_ms", percentile(late, 0.99))

	// ---- live, traced window ----
	tf, tl := traced.snaps[0], traced.snaps[end]
	tracedRates := traced.ratesOver(0, end)
	writeDgrams := float64(tl.ConnWriteDgrams - tf.ConnWriteDgrams)
	measuredWr := ratio(writeDgrams, float64(tl.ConnWrites-tf.ConnWrites))
	set("udpbatch.live.dgrams_per_read", ratio(float64(tl.ConnReadDgrams-tf.ConnReadDgrams), float64(tl.ConnReads-tf.ConnReads)))
	set("udpbatch.live.dgrams_per_write", measuredWr)
	set("udpbatch.live.write_ns_per_dgram", ratio(float64(tl.ConnWriteNs-tf.ConnWriteNs), writeDgrams))
	set("udpbatch.live.write_errors", float64(tl.ConnWriteErrs-tf.ConnWriteErrs))
	set("host.app_ns_per_keystroke", ratio(float64(tl.AppNs-tf.AppNs), float64(tl.AppCalls-tf.AppCalls)))
	set("trace.overhead_frac", ratio(tracedRates.cpuUs*1e3, cpuPerKey)-1)

	// ---- model reconciliation ----
	set("model.syscalls_per_dgram", modelSys)
	set("model.dgrams_per_write", modelWr)
	rep.Model = &modelRow{
		Rung: rung, Sessions: o.sessionCount(),
		MeasuredSyscallsPerDg: measuredSys, ModelSyscallsPerDg: modelSys,
		MeasuredDgramsPerWr: measuredWr, ModelDgramsPerWr: modelWr,
	}

	// ---- budget ----
	sock := lad.socks[rungMetric(rung)]
	sockPerKey := sock.writeNs*outPerKey + sock.readNs*inPerKey
	ocbPerKey := c.ocbSeal.ns*outPerKey + c.ocbOpen.ns*inPerKey
	sspPerKey := c.sspSeal.ns*outPerKey + c.sspOpen.ns*inPerKey
	frameDiffPerKey := s.frameDiff * framesPerKey
	rep.Budget = []budgetRow{
		{"udpbatch." + rungMetric(rung), sockPerKey / 1e3, "loopback WriteBatch/ReadBatch per datagram x datagrams per keystroke"},
		{"sessiond", daemonSelf / 1e3, "HandleBatch+TickDue minus host.App.Input minus the core rung"},
		{"host", app / 1e3, "host.App.Input spans inside HandleBatch"},
		{"core", coreSelf / 1e3, "core.Server calls minus the transport rung and the emulator write"},
		{"terminal (emulator write)", emuWrite / 1e3, "Emulator.Write of host output, transport rung"},
		{"transport", transportSelf / 1e3, "Transport calls minus network and statesync loops (includes zlib, fragmenting)"},
		{"statesync", (statesyncPerKey - frameDiffPerKey) / 1e3, "Complete.AppendDiff+Clone per frame and UserStream.Apply, minus the frame writer"},
		{"terminal (frame diff)", frameDiffPerKey / 1e3, "FrameWriter.AppendFrame per frame"},
		{"network", (networkPerKey - sspPerKey) / 1e3, "AppendPacket/Receive minus sspcrypto"},
		{"sspcrypto", (sspPerKey - ocbPerKey) / 1e3, "SealAppend/Decrypt minus ocb"},
		{"ocb", ocbPerKey / 1e3, "AEAD Seal/Open per datagram x datagrams per keystroke"},
	}
	sum := 0.0
	for _, row := range rep.Budget {
		sum += row.SelfU
	}
	set("budget.server_ladder_us_per_keystroke", sum)
	set("budget.coverage", ratio(sum*1e3, cpuPerKey))

	// Tens of thousands of spans: written compact.
	sf, err := json.Marshal(spanFile{Workload: o.w.name, Seed: o.seed, Rungs: lad.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+o.w.name+".json"), sf, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// rungMetric maps a provider's self-reported name to the name its ladder
// rung is reported under.
func rungMetric(provider string) string {
	if provider == "io_uring" {
		return "uring"
	}
	return provider
}

// printBudget prints the budget table and the model reconciliation row.
func printBudget(rep *workloadReport) {
	fmt.Printf("  budget, server-side self time per keystroke (%s):\n", rep.Workload)
	for _, row := range rep.Budget {
		fmt.Printf("    %-28s %10.2f us   %s\n", row.Layer, row.SelfU, row.How)
	}
	sum := rep.Metrics["budget.server_ladder_us_per_keystroke"].Value
	cov := rep.Metrics["budget.coverage"].Value
	fmt.Printf("    %-28s %10.2f us   measured server CPU %.2f us/keystroke, coverage %.2f\n", "ladder sum", sum, ratio(sum, cov), cov)
	if m := rep.Model; m != nil {
		fmt.Printf("  model reconciliation (%s, %d sessions): syscalls/dgram measured %.3f, IOModel predicts %.3f; dgrams/write measured %.2f, IOModel predicts %.2f\n",
			m.Rung, m.Sessions, m.MeasuredSyscallsPerDg, m.ModelSyscallsPerDg, m.MeasuredDgramsPerWr, m.ModelDgramsPerWr)
	}
}
