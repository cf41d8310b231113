//go:build linux

package main

// metricDef declares one metric. BENCHMARK.json lists the same names,
// units and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, printed by an
// untraced run. Bound is the share of the parent's median by which the
// metric may get worse before a change counts as a regression. They are
// wide because this box is not steady: README, "How the bounds were set",
// has the spreads unchanged code showed over ten seeds. The server's CPU
// time per keystroke is not among them: unchanged code could not hold any
// bound on it here, so it is the per-layer server.cpu_us_per_keystroke.
var endToEnd = []metricDef{
	{"keystroke_echo_p50_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_keystroke", "B", "lower", 0.15},
	{"keystrokes_per_s", "1/s", "higher", 0.25},
	{"server_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics, printed by a traced run. The
// prefix is the module the metric belongs to.
var perLayer = []metricDef{
	// Ladder: per-datagram cost of the cipher and datagram layers over the
	// workload's captured datagram sizes.
	{Name: "ocb.seal_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "ocb.open_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "sspcrypto.seal_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "sspcrypto.open_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "sspcrypto.allocs_per_dgram", Unit: "count", Better: "lower"},
	{Name: "network.send_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "network.recv_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "network.allocs_per_dgram", Unit: "count", Better: "lower"},
	// Ladder: a Transport pair in virtual time.
	{Name: "transport.self_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "transport.dgrams_per_keystroke", Unit: "count", Better: "lower"},
	{Name: "transport.fragments_per_frame", Unit: "count", Better: "lower"},
	{Name: "transport.diff_bytes_per_keystroke", Unit: "B", Better: "lower"},
	{Name: "transport.empty_acks_per_keystroke", Unit: "count", Better: "lower"},
	// Ladder: the synchronized objects and the emulator under them.
	{Name: "statesync.diff_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "statesync.apply_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "statesync.clone_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "statesync.userstream_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "terminal.emu_write_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "terminal.frame_diff_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "terminal.frame_apply_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "terminal.allocs_per_keystroke", Unit: "count", Better: "lower"},
	{Name: "overlay.predict_ns_per_keystroke", Unit: "ns", Better: "lower"},
	// Ladder: the assembled endpoints and the daemon in sync mode.
	{Name: "core.server_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "core.client_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "core.server_self_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_keystroke", Unit: "count", Better: "lower"},
	{Name: "sessiond.ingest_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "sessiond.tick_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "sessiond.self_ns_per_keystroke", Unit: "ns", Better: "lower"},
	{Name: "sessiond.journal_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "sessiond.resident_bytes_per_session", Unit: "B", Better: "lower"},
	// Live: the daemon's own counters and stage histograms over the window.
	{Name: "sessiond.syscalls_per_dgram", Unit: "count", Better: "lower"},
	{Name: "sessiond.stage_queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "sessiond.stage_queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "sessiond.stage_egress_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "sessiond.stage_egress_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "sessiond.stage_apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "sessiond.stage_tick_p50_us", Unit: "us", Better: "lower"},
	{Name: "sessiond.drops_queue_full", Unit: "count", Better: "lower"},
	{Name: "sessiond.drops_egress_full", Unit: "count", Better: "lower"},
	{Name: "sessiond.drops_auth", Unit: "count", Better: "lower"},
	// What sessiond.Config.IOModel predicts for the live rung and session
	// count, beside the two measured figures it models.
	{Name: "model.syscalls_per_dgram", Unit: "count", Better: "lower"},
	{Name: "model.dgrams_per_write", Unit: "count", Better: "higher"},
	// Ladder: every socket rung on a loopback pair, side by side.
	{Name: "udpbatch.loop.write_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.loop.read_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.loop.traversals_per_dgram", Unit: "count", Better: "lower"},
	{Name: "udpbatch.mmsg.write_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.mmsg.read_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.mmsg.traversals_per_dgram", Unit: "count", Better: "lower"},
	{Name: "udpbatch.gso.write_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.gso.read_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.gso.traversals_per_dgram", Unit: "count", Better: "lower"},
	{Name: "udpbatch.uring.write_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.uring.read_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.uring.traversals_per_dgram", Unit: "count", Better: "lower"},
	// Live traced run: the decorators around the served connection and the
	// host applications.
	{Name: "udpbatch.live.dgrams_per_read", Unit: "count", Better: "higher"},
	{Name: "udpbatch.live.dgrams_per_write", Unit: "count", Better: "higher"},
	{Name: "udpbatch.live.write_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udpbatch.live.write_errors", Unit: "count", Better: "lower"},
	{Name: "host.app_ns_per_keystroke", Unit: "ns", Better: "lower"},
	// Live: the server process from outside and from its Go runtime.
	{Name: "server.cpu_us_per_keystroke", Unit: "us", Better: "lower"},
	{Name: "server.cpu_util", Unit: "cores", Better: "lower"},
	{Name: "server.sys_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.allocs_per_keystroke", Unit: "count", Better: "lower"},
	{Name: "server.alloc_bytes_per_keystroke", Unit: "B", Better: "lower"},
	// Live: the tail the client saw, and whether the generator kept up.
	{Name: "client.echo_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.echo_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.echo_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.echo_samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.cpu_util", Unit: "cores", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	// The budget: ladder sum against measured CPU, and what tracing cost.
	{Name: "budget.server_ladder_us_per_keystroke", Unit: "us", Better: "lower"},
	{Name: "budget.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output: the result contract.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
