// Command mosh-server is the server side of real (UDP) Mosh sessions. It
// runs on internal/sessiond: one daemon, one UDP socket, up to -sessions
// concurrent users demultiplexed by the cleartext session-ID envelope. At
// startup it issues every session slot and prints one bootstrap line per
// slot (the paper's SSH-launched script would carry these to the clients):
//
//	MOSH CONNECT <port> <key> <session-id>
//
// Each serves a built-in demo application; a production deployment would
// attach ptys instead — the session, terminal and protocol layers are
// identical.
//
// Usage:
//
//	mosh-server [-port 60001] [-sessions 64] [-demo shell|editor|mail]
//	            [-idle 12h] [-debug 127.0.0.1:6060] [-udp-provider auto|mmsg|loop]
//	            [-state-dir /var/lib/moshd] [-journal 10s]
//	            [-unauth-burst 64] [-unauth-rate 16]
//
// Then, per printed line: mosh-client -to <host>:<port> -key <key> -session <id>
//
// The daemon serves its socket through the batched datagram pipeline
// (internal/udpbatch): recvmmsg/sendmmsg on Linux move whole batches of
// datagrams per syscall; -udp-provider loop forces the portable
// one-datagram-per-syscall loop instead.
//
// -debug serves the daemon's observability surface: expvar metrics at
// /debug/vars (counters, screen-state gauges, live transport introspection,
// keystroke→echo percentiles, per-stage pipeline latency), the same data as
// Prometheus text exposition at /metrics, and the Go runtime profiler at
// /debug/pprof/. SIGQUIT dumps the in-memory flight recorder (the last few
// thousand pipeline events) to stderr instead of the Go runtime's stack
// dump; degradation trips (load shedding, journal suspension, unauth-quota
// blocks) dump it automatically. See README's "Observability".
//
// -state-dir enables crash-safe session resumption: the daemon journals
// every session's durable core there (periodically, per -journal, and on
// SIGINT/SIGTERM), and on start restores journaled sessions, printing one
// "MOSH RESUME <port> <key> <id>" line per revived session. Clients keep
// their existing key and session ID; their next datagram authenticates and
// the daemon fast-forwards them with a fresh full-screen diff — a restart
// is just another form of packet loss.
//
// -unauth-burst/-unauth-rate tune the per-source quota on auth-failing
// datagrams: spoofed-envelope floods are refused before the AEAD runs once
// a source exhausts its burst, and any authentic datagram clears its
// source's record (a roaming client can never lock itself out). See
// README's "Fault tolerance & graceful degradation".
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug listener's default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/host"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/udpbatch"
)

// parseDemo returns the constructor of the -demo application name. A
// name that is none of them is an error, not a silent fallback to shell.
func parseDemo(name string) (func(seed int64) host.App, error) {
	switch name {
	case "shell":
		return func(seed int64) host.App { return host.NewShell(seed) }, nil
	case "editor":
		return func(seed int64) host.App { return host.NewEditor(seed, 80) }, nil
	case "mail":
		return func(seed int64) host.App { return host.NewMailReader(seed) }, nil
	}
	return nil, fmt.Errorf("unknown -demo %q (want shell|editor|mail)", name)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command with its arguments, printing the bootstrap lines to
// stdout. It returns the exit status: 2 for a usage error, 0 once the
// daemon has closed cleanly; a failure to start or serve exits 1 from
// log.Fatal.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mosh-server", flag.ExitOnError)
	port := fs.Int("port", 60001, "UDP port to listen on")
	sessions := fs.Int("sessions", 64, "session capacity (all issued at startup)")
	demo := fs.String("demo", "shell", "demo application: shell|editor|mail")
	idle := fs.Duration("idle", sessiond.DefaultIdleTimeout, "evict sessions idle this long (0 or negative = never)")
	debug := fs.String("debug", "", "serve expvar metrics on this address (e.g. 127.0.0.1:6060)")
	stateDir := fs.String("state-dir", "", "journal sessions here and restore them on start (crash-safe resumption)")
	journal := fs.Duration("journal", sessiond.DefaultJournalInterval, "journal flush cadence with -state-dir")
	udpProvider := fs.String("udp-provider", "auto", "batch I/O provider: auto|mmsg|loop; auto takes the best-measured provider the platform has (mmsg, else loop), loop is the one-datagram-per-syscall fallback, and an explicit name fails at startup if unsupported rather than silently falling back")
	quotaBurst := fs.Int("unauth-burst", sessiond.DefaultUnauthQuotaBurst, "auth-failing datagrams a single source may charge before being quota-dropped without AEAD cost (negative disables the quota)")
	quotaRate := fs.Float64("unauth-rate", sessiond.DefaultUnauthQuotaRate, "per-source refill rate (auth failures/sec) for the unauth quota")
	fs.Parse(args)
	usage := func(err error) int {
		fmt.Fprintf(os.Stderr, "mosh-server: %v\n", err)
		fs.Usage()
		return 2
	}
	demoApp, err := parseDemo(*demo)
	if err != nil {
		return usage(err)
	}

	conn, err := net.ListenUDP("udp", &net.UDPAddr{Port: *port})
	if err != nil {
		log.Fatal(err)
	}
	// The batch connection handles address translation itself: netem.Addr
	// is a bijective compression of the socket address — (IPv4, port)
	// packed directly, native IPv6 carried by value — so replies,
	// including post-roam replies, decompress straight back into socket
	// addresses with no pre-authentication side table to poison. It is
	// built before any session is restored or issued, so that a provider
	// this platform cannot run fails with no live key printed.
	bc, err := udpbatch.NewUDPConnProvider(conn, *udpProvider)
	if errors.Is(err, udpbatch.ErrUnknownProvider) {
		return usage(err)
	} else if err != nil {
		log.Fatalf("udp-provider %q: %v", *udpProvider, err)
	}
	bound := conn.LocalAddr().(*net.UDPAddr).Port

	newApp := func(id uint64) host.App {
		return demoApp(time.Now().UnixNano() + int64(id))
	}

	if *idle == 0 {
		// The daemon treats 0 as "use the default"; at the flag surface a
		// plain reading of -idle 0 is "never evict".
		*idle = -1
	}
	d, err := sessiond.New(sessiond.Config{
		Clock:       simclock.Real{},
		NewApp:      newApp,
		Capacity:    *sessions,
		IdleTimeout: *idle,
		// Egress hands datagrams to the kernel before recycling, so
		// per-session wire buffers are reused (the ring owns pooled copies).
		RecycleWire:      true,
		StateDir:         *stateDir,
		JournalInterval:  *journal,
		UnauthQuotaBurst: *quotaBurst,
		UnauthQuotaRate:  *quotaRate,
		// Degradation trips ship their own forensics: the flight-recorder
		// dump holds the events that led to the trip (rate-limited to one
		// dump per reason per 10 s inside the daemon).
		OnDegrade: func(reason string, dump []byte) {
			fmt.Fprintf(os.Stderr, "--- degradation trip (%s) ---\n%s", reason, dump)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sessions restored from the journal keep their keys and IDs; their
	// clients resume without re-bootstrapping. Newly issued slots fill the
	// remaining capacity.
	restored := d.Metrics().SessionsRestored.Value()
	if restored > 0 {
		for _, s := range d.Sessions() {
			fmt.Fprintf(stdout, "MOSH RESUME %d %s %d\n", bound, s.Key().Base64(), s.ID)
		}
	}
	for i := int64(0); i < int64(*sessions)-restored; i++ {
		s, err := d.OpenSession()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(stdout, "MOSH CONNECT %d %s %d\n", bound, s.Key().Base64(), s.ID)
	}

	// A clean shutdown flushes the journal so every session survives the
	// next start; the kill--9 case is what the reservation ceilings and
	// the periodic flush protect.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		// Close flushes the journal and unblocks ServeBatch's read, which then
		// returns nil for a clean exit.
		d.Close()
	}()

	// SIGQUIT dumps the flight recorder to stderr and keeps serving.
	// Catching it replaces the Go runtime's default goroutine-stack dump —
	// for that, use /debug/pprof/goroutine on the -debug listener.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			os.Stderr.Write(d.FlightDump("SIGQUIT"))
		}
	}()

	if *debug != "" {
		// Counters plus resident screen-state gauges (interned graphemes,
		// pooled rows, shared grid rows), live transport introspection
		// (SRTT / frame-interval quantiles), keystroke→echo percentiles,
		// and per-stage pipeline latency: the whole surface at /debug/vars,
		// mirrored as Prometheus text exposition at /metrics. The pprof
		// import above registers /debug/pprof on the same mux.
		d.PublishExpvar("sessiond")
		http.Handle("/metrics", d.MetricsHandler())
		go func() {
			// expvar auto-registers /debug/vars on the default mux.
			log.Println(http.ListenAndServe(*debug, nil))
		}()
	}

	log.Printf("udp batch provider: %s", udpbatch.ProviderName(bc))
	if err := d.ServeBatch(bc); err != nil {
		log.Fatal(err)
	}
	return 0
}
