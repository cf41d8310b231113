//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/host"
	"repro/internal/terminal"
)

// cohort is one application population inside a workload: the host model
// behind each session and the keystrokes its user types at it.
type cohort struct {
	name   string
	newApp func(seed int64, width int) host.App
	// key returns the n-th keystroke (1-based) of a session's stream.
	key func(rng *rand.Rand, n int) []byte
}

// workload is one traffic mix. Sessions are split evenly across cohorts by
// session index; rate 0 means closed loop (one keystroke outstanding per
// session, the next typed on echo).
type workload struct {
	name     string
	why      string
	sessions int
	w, h     int
	rate     float64 // keystrokes/s/session, open loop; 0 = closed loop
	cohorts  []cohort
	// ladderSessions × ladderKeys sizes the traced ladder replay: enough
	// keystrokes that per-call timer noise averages out, few enough that a
	// traced run stays within its time budget.
	ladderSessions, ladderKeys int
}

const typingAlphabet = "etaoinshrdlucmfwypvbgkqjxz    "

// printableKey is the n-th key of a typist: a letter or space, with ENTER
// every enterEvery-th key (0 = never).
func printableKey(rng *rand.Rand, n, enterEvery int) []byte {
	if enterEvery > 0 && n%enterEvery == 0 {
		return []byte{'\r'}
	}
	return []byte{typingAlphabet[rng.Intn(len(typingAlphabet))]}
}

var (
	shellCohort = cohort{
		name:   "shell",
		newApp: func(seed int64, _ int) host.App { return host.NewShell(seed) },
		// ENTER every 40th key keeps the line inside an 80-column prompt
		// row and makes the shell print command output now and then.
		key: func(rng *rand.Rand, n int) []byte { return printableKey(rng, n, 40) },
	}
	pagerCohort = cohort{
		name:   "pager",
		newApp: func(seed int64, _ int) host.App { return host.NewPager(seed) },
		key: func(rng *rand.Rand, _ int) []byte {
			if rng.Intn(5) == 0 {
				return []byte{'b'}
			}
			return []byte{' '}
		},
	}
	mailCohort = cohort{
		name:   "mail",
		newApp: func(seed int64, _ int) host.App { return host.NewMailReader(seed) },
		key: func(rng *rand.Rand, _ int) []byte {
			return []byte{"nnnjjpk\r"[rng.Intn(8)]}
		},
	}
	editorCohort = cohort{
		name:   "editor",
		newApp: func(seed int64, width int) host.App { return host.NewEditor(seed, width) },
		key: func(rng *rand.Rand, n int) []byte {
			if n%23 == 0 {
				return terminal.EncodeSpecial(terminal.KeyLeft, false)
			}
			return printableKey(rng, n, 60)
		},
	}
	unicodeCohort = cohort{
		name:   "unicode-editor",
		newApp: func(seed int64, width int) host.App { return host.NewUnicodeEditor(seed, width) },
		key:    func(rng *rand.Rand, n int) []byte { return printableKey(rng, n, 30) },
	}
	bulkCohort = cohort{
		name:   "bulk",
		newApp: func(seed int64, _ int) host.App { return host.NewBulkStream(seed, 0) },
		key:    func(rng *rand.Rand, n int) []byte { return printableKey(rng, n, 0) },
	}
)

// workloads is the benchmark's fixed set, in reporting order. Sizes put the
// server at roughly 0.2-0.45 of one core on a 2-core 2 GHz VM for the three
// open-loop mixes; saturate finds the per-core ceiling itself.
var workloads = []workload{
	{
		name:     "typing",
		why:      "256 shells at 8 keys/s, open loop: smallest datagrams, so per-datagram cost (ocb, sspcrypto, network, sessiond hand-offs, small udpbatch batches) dominates",
		sessions: 256, w: 80, h: 24, rate: 8,
		cohorts:        []cohort{shellCohort},
		ladderSessions: 32, ladderKeys: 120,
	},
	{
		name:     "repaint",
		why:      "96 pager/mail/editor/unicode-editor sessions at 132x43, 3 keys/s, open loop: each key repaints much of a large screen in one datagram, so terminal, statesync and zlib dominate",
		sessions: 96, w: 132, h: 43, rate: 3,
		cohorts:        []cohort{pagerCohort, mailCohort, editorCohort, unicodeCohort},
		ladderSessions: 16, ladderKeys: 60,
	},
	{
		name:     "trains",
		why:      "48 bulk-output sessions at 162x64, 3 keys/s, open loop: every reply is a ~10-datagram same-peer train, so per-byte OCB, fragmentation and udpbatch egress batching dominate",
		sessions: 48, w: 162, h: 64, rate: 3,
		cohorts:        []cohort{bulkCohort},
		ladderSessions: 8, ladderKeys: 40,
	},
	{
		name:     "saturate",
		why:      "400 shells, closed loop, one key outstanding per session: large batches and full queues state capacity per core, where a latency-for-throughput trade shows",
		sessions: 400, w: 80, h: 24, rate: 0,
		cohorts:        []cohort{shellCohort},
		ladderSessions: 32, ladderKeys: 120,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) closedLoop() bool { return w.rate == 0 }

// cohortOf maps a 0-based session index to its cohort. The daemon issues
// session IDs sequentially from 1, so session index i has ID i+1 on both
// sides of the socket.
func (w *workload) cohortOf(idx int) *cohort { return &w.cohorts[idx%len(w.cohorts)] }

// Seeds are fixed functions of the run seed and the session index, so the
// server child, the load generator and the reference replay agree on every
// application's behaviour and every user's keystrokes without exchanging
// anything but the seed.
func appSeed(seed int64, idx int) int64 { return seed*1_000_003 + int64(idx)*7919 + 1 }
func keySeed(seed int64, idx int) int64 { return seed*2_000_003 + int64(idx)*104729 + 2 }

func (w *workload) newApp(seed int64, idx int) host.App {
	return w.cohortOf(idx).newApp(appSeed(seed, idx), w.w)
}

// keyStream yields one session's keystrokes in order.
type keyStream struct {
	rng *rand.Rand
	key func(rng *rand.Rand, n int) []byte
	n   int
}

func (w *workload) newKeyStream(seed int64, idx int) *keyStream {
	return &keyStream{rng: rand.New(rand.NewSource(keySeed(seed, idx))), key: w.cohortOf(idx).key}
}

func (k *keyStream) next() []byte {
	k.n++
	return k.key(k.rng, k.n)
}

// keyEvent is one scheduled open-loop keystroke: due is its offset from
// the start of the run (warm-up included).
type keyEvent struct {
	due  time.Duration
	data []byte
}

// schedule generates session idx's open-loop keystrokes over span: gaps
// uniform in [0.5, 1.5]/rate, first key at a uniform phase in [0, 1/rate)
// so sessions do not type in lockstep.
func (w *workload) schedule(seed int64, idx int, span time.Duration) []keyEvent {
	ks := w.newKeyStream(seed, idx)
	rng := rand.New(rand.NewSource(keySeed(seed, idx) ^ 0x5eed))
	mean := float64(time.Second) / w.rate
	at := time.Duration(rng.Float64() * mean)
	var evs []keyEvent
	for at < span {
		evs = append(evs, keyEvent{due: at, data: ks.next()})
		at += time.Duration((0.5 + rng.Float64()) * mean)
	}
	return evs
}

// markerApp wraps a host application so that every keystroke's echo is
// observable exactly, whatever the application prints: it appends
// "OSC 0 ; k<n> BEL" — n counts keystrokes — to each response. The window
// title is part of the synchronized framebuffer, so keystroke n has been
// echoed the instant the client's title reads k>=n, and no grid cell is
// disturbed. The application's think-time is forced to 0: synthetic think
// time is not the system under test.
type markerApp struct {
	inner host.App
	n     int
	// around, when set (traced runs only), is called with the wrapped
	// application's Input as its argument, so the caller can time it.
	around func(input func())
}

func (m *markerApp) Start() []byte { return m.inner.Start() }

func (m *markerApp) Input(data []byte) ([]byte, time.Duration) {
	var out []byte
	if m.around != nil {
		m.around(func() { out, _ = m.inner.Input(data) })
	} else {
		out, _ = m.inner.Input(data)
	}
	m.n++
	out = append(out, "\x1b]0;k"...)
	out = strconv.AppendInt(out, int64(m.n), 10)
	return append(out, '\a'), 0
}

// markerCount parses a marker title back into its keystroke count (0 for
// anything that is not a marker).
func markerCount(title string) int {
	if len(title) < 2 || title[0] != 'k' {
		return 0
	}
	n, err := strconv.Atoi(title[1:])
	if err != nil {
		return 0
	}
	return n
}

// frameHash is the canonical fingerprint of a screen: a from-scratch
// repaint of it, hashed. Two framebuffers showing the same thing hash
// equal however they got there.
func frameHash(fb *terminal.Framebuffer) [sha256.Size]byte {
	return sha256.Sum256(terminal.NewFrame(false, nil, fb))
}

// reference replays one session locally: the same application, seed and
// keystrokes, fed straight through a terminal emulator with no network in
// between. It is what the client's screen must converge to.
type reference struct {
	app  *markerApp
	emu  *terminal.Emulator
	keys *keyStream
}

func (w *workload) newReference(seed int64, idx int) *reference {
	r := &reference{
		app:  &markerApp{inner: w.newApp(seed, idx)},
		emu:  terminal.NewEmulator(w.w, w.h),
		keys: w.newKeyStream(seed, idx),
	}
	r.emu.Framebuffer().SetScrollbackLimit(-1)
	r.emu.Write(r.app.Start())
	return r
}

// advanceTo types keystrokes until n have been typed in total.
func (r *reference) advanceTo(n int) {
	for r.app.n < n {
		out, _ := r.app.Input(r.keys.next())
		r.emu.Write(out)
	}
}

// digestKeys is how many keystrokes per session a closed-loop workload's
// digest covers (its live count depends on how fast the server is).
const digestKeys = 64

// digest fingerprints what a (workload, seed, span) measures over its
// first n sessions: the keystroke schedule and the screens it must produce.
// An edit to a host model or a key generator changes it; the committed
// seed-1 digests turn that into a failed run instead of a silently
// different benchmark. It also returns each session's reference, advanced
// to the digest point, so the correctness check can replay on from there.
func (w *workload) digest(seed int64, span time.Duration, n int) (string, []*reference) {
	h := sha256.New()
	var num [8]byte
	refs := make([]*reference, n)
	for idx := range refs {
		ref := w.newReference(seed, idx)
		keys := digestKeys
		if w.closedLoop() {
			for ks := w.newKeyStream(seed, idx); ks.n < keys; {
				h.Write(ks.next())
			}
		} else {
			evs := w.schedule(seed, idx, span)
			keys = len(evs)
			for _, ev := range evs {
				binary.BigEndian.PutUint64(num[:], uint64(ev.due))
				h.Write(num[:])
				h.Write(ev.data)
			}
		}
		ref.advanceTo(keys)
		fh := frameHash(ref.emu.Framebuffer())
		h.Write(fh[:])
		refs[idx] = ref
	}
	return hex.EncodeToString(h.Sum(nil)), refs
}
