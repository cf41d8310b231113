// Package host provides deterministic models of the applications behind
// the paper's keystroke traces (§4): shells that echo line input, raw-mode
// full-screen editors, mail readers whose navigation keys trigger screen
// repaints, and password prompts that echo nothing. The trace generator
// composes them into sessions, and the benchmark harness replays their
// prerecorded responses exactly the way the paper's server-side replay
// process did ("waited for the expected user input and then replied in
// time with the prerecorded server output").
//
// All models are pure functions of their input history for a given seed,
// so the Mosh and SSH arms of every experiment see byte-identical host
// behavior.
package host

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// App models a host application. Input consumes one user keystroke (as
// host bytes) and returns the application's output write and how long the
// application "thought" before writing it (0 delay with nil output means
// no response).
type App interface {
	// Start returns the application's initial output (prompt, first
	// screen repaint).
	Start() []byte
	// Input processes one keystroke.
	Input(data []byte) (output []byte, delay time.Duration)
}

// Shell models a canonical line-editing shell at a prompt: printables are
// echoed, backspace rubs out, ENTER runs the "command" and prints its
// output followed by a fresh prompt.
type Shell struct {
	rng    *rand.Rand
	prompt string
	line   []byte
}

// NewShell returns a shell with deterministic command output from seed.
func NewShell(seed int64) *Shell {
	return &Shell{rng: rand.New(rand.NewSource(seed)), prompt: "user@remote:~$ "}
}

// Start prints the initial prompt.
func (s *Shell) Start() []byte { return []byte(s.prompt) }

// Input implements App.
func (s *Shell) Input(data []byte) ([]byte, time.Duration) {
	var out []byte
	delay := time.Duration(1+s.rng.Intn(8)) * time.Millisecond
	for _, b := range data {
		switch {
		case b == '\r':
			out = append(out, "\r\n"...)
			out = append(out, s.commandOutput()...)
			out = append(out, s.prompt...)
			s.line = s.line[:0]
		case b == 0x7f || b == 0x08:
			if len(s.line) > 0 {
				s.line = s.line[:len(s.line)-1]
				out = append(out, "\b \b"...)
			}
		case b == 0x03: // ^C
			out = append(out, "^C\r\n"...)
			out = append(out, s.prompt...)
			s.line = s.line[:0]
		case b >= 0x20 && b < 0x7f:
			s.line = append(s.line, b)
			out = append(out, b)
		case b >= 0x80: // UTF-8 continuation/lead: echo through
			s.line = append(s.line, b)
			out = append(out, b)
		}
	}
	return out, delay
}

// commandOutput fabricates a plausible command result.
func (s *Shell) commandOutput() []byte {
	lines := s.rng.Intn(6)
	var b strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "-rw-r--r-- 1 user user %6d Apr  1 12:%02d file%02d.txt\r\n",
			s.rng.Intn(100000), s.rng.Intn(60), s.rng.Intn(100))
	}
	return []byte(b.String())
}

// Editor models a raw-mode full-screen compose/edit session (vi, emacs,
// alpine's composer): printables echo at the cursor, lines soft-wrap with
// an explicit newline, and — like every real compose UI — the cursor is
// kept in a mid-screen editing region that is repainted when it fills,
// rather than scrolling the whole screen on every wrapped line. (Per-line
// full-screen scrolls would invalidate every outstanding prediction on a
// long-RTT path; real editors do not behave that way.)
type Editor struct {
	rng          *rand.Rand
	keystrokes   int
	width        int
	sinceRepaint int // printable characters since the last region repaint
}

// editorRegionTop is the 1-based row the editing region starts at; text
// autowraps downward from here and the region is repainted well before it
// could reach the bottom of a 24-row screen and force scrolling.
const editorRegionTop = 12

// editorRepaintEvery bounds how much text accumulates between region
// repaints: 6 lines of an 80-column screen.
const editorRepaintEvery = 6 * 80

// NewEditor returns an editor model.
func NewEditor(seed int64, width int) *Editor {
	return &Editor{rng: rand.New(rand.NewSource(seed)), width: width}
}

// Start paints the editor screen.
func (e *Editor) Start() []byte {
	var b strings.Builder
	b.WriteString("\x1b[2J\x1b[H")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "line %d of the file being edited\r\n", i+1)
	}
	b.WriteString("\x1b[24;1H\x1b[7m-- buffer.txt --\x1b[0m\x1b[12;1H")
	return []byte(b.String())
}

func (e *Editor) maybeRepaint(out []byte) []byte {
	if e.sinceRepaint >= editorRepaintEvery {
		e.sinceRepaint = 0
		out = append(out, fmt.Sprintf("\x1b[%d;1H\x1b[0J", editorRegionTop)...)
	}
	return out
}

// Input implements App. Echoed text autowraps naturally; the region
// repaint keeps the cursor away from the screen bottom, as real compose
// interfaces do (they repaint their message area rather than scrolling the
// whole screen line by line).
func (e *Editor) Input(data []byte) ([]byte, time.Duration) {
	e.keystrokes++
	delay := time.Duration(1+e.rng.Intn(10)) * time.Millisecond
	var out []byte
	out = e.maybeRepaint(out)
	switch {
	case len(data) == 1 && data[0] >= 0x20 && data[0] < 0x7f:
		out = append(out, data[0])
		e.sinceRepaint++
		// Periodically the editor also updates its status line (a
		// second write shortly after the echo).
		if e.keystrokes%17 == 0 {
			out = append(out, "\x1b7\x1b[24;60H\x1b[7m[+]\x1b[0m\x1b8"...)
		}
	case len(data) == 1 && data[0] == '\r':
		out = append(out, "\r\n"...)
		e.sinceRepaint += e.width
	case len(data) == 1 && (data[0] == 0x7f || data[0] == 0x08):
		out = append(out, "\b \b"...)
	case len(data) == 3 && data[0] == 0x1b && data[1] == '[':
		// Arrow key: the editor moves the cursor (navigation).
		switch data[2] {
		case 'A', 'B', 'C', 'D':
			out = append(out, 0x1b, '[', data[2])
		}
	default:
		// Control command (^X, ^S...): redraw the status line.
		out = append(out, "\x1b7\x1b[24;1H\x1b[7m-- saved --\x1b[0m\x1b8"...)
		delay += time.Duration(e.rng.Intn(20)) * time.Millisecond
	}
	return out, delay
}

// MailReader models alpine/mutt-style message navigation: each keystroke
// repaints a chunk of the screen and echoes nothing — the paper's
// canonical "navigation" workload that prediction cannot help.
type MailReader struct {
	rng     *rand.Rand
	message int
}

// NewMailReader returns a mail reader model.
func NewMailReader(seed int64) *MailReader {
	return &MailReader{rng: rand.New(rand.NewSource(seed))}
}

// Start paints the index screen.
func (m *MailReader) Start() []byte { return m.repaint() }

func (m *MailReader) repaint() []byte {
	var b strings.Builder
	b.WriteString("\x1b[2J\x1b[H\x1b[7m  PINE 4.64   MESSAGE INDEX                    Folder: INBOX\x1b[0m\r\n\r\n")
	for i := 0; i < 18; i++ {
		marker := "  "
		if i == m.message%18 {
			marker = "->"
		}
		fmt.Fprintf(&b, "%s %3d  Apr %2d  sender%02d@example.com   (%4d)  Subject line %d\r\n",
			marker, i+1, 1+m.rng.Intn(28), m.rng.Intn(100), m.rng.Intn(9000), m.rng.Intn(1000))
	}
	return []byte(b.String())
}

// Input implements App.
func (m *MailReader) Input(data []byte) ([]byte, time.Duration) {
	delay := time.Duration(5+m.rng.Intn(30)) * time.Millisecond
	if len(data) == 1 {
		switch data[0] {
		case 'n', 'j':
			m.message++
			return m.repaint(), delay
		case 'p', 'k':
			if m.message > 0 {
				m.message--
			}
			return m.repaint(), delay
		case '\r', ' ':
			return m.repaint(), delay
		}
	}
	return nil, 0
}

// Pager models less/more: space and 'b' page through a document with a
// full-screen repaint, 'q' quits back to the shell prompt. Pure
// navigation — the canonical workload prediction cannot help (§2).
type Pager struct {
	rng  *rand.Rand
	page int
}

// NewPager returns a pager model.
func NewPager(seed int64) *Pager {
	return &Pager{rng: rand.New(rand.NewSource(seed))}
}

// Start paints the first page.
func (p *Pager) Start() []byte { return p.repaint() }

func (p *Pager) repaint() []byte {
	var b strings.Builder
	b.WriteString("\x1b[2J\x1b[H")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "MANUAL(%d)  section text line %d with some explanatory words %04x\r\n",
			p.page, i, p.rng.Intn(1<<16))
	}
	b.WriteString("\x1b[7m--More--\x1b[0m")
	return []byte(b.String())
}

// Input implements App.
func (p *Pager) Input(data []byte) ([]byte, time.Duration) {
	delay := time.Duration(2+p.rng.Intn(15)) * time.Millisecond
	if len(data) == 1 {
		switch data[0] {
		case ' ', 'f':
			p.page++
			return p.repaint(), delay
		case 'b':
			if p.page > 0 {
				p.page--
			}
			return p.repaint(), delay
		case 'q':
			return []byte("\x1b[2J\x1b[Huser@remote:~$ "), delay
		}
	}
	return nil, 0
}

// PasswordPrompt models sudo/passwd: the prompt is printed once and
// keystrokes produce no echo until ENTER.
type PasswordPrompt struct {
	done bool
}

// NewPasswordPrompt returns a password prompt model.
func NewPasswordPrompt() *PasswordPrompt { return &PasswordPrompt{} }

// Start prints the prompt.
func (p *PasswordPrompt) Start() []byte { return []byte("Password: ") }

// Input implements App.
func (p *PasswordPrompt) Input(data []byte) ([]byte, time.Duration) {
	if p.done {
		return nil, 0
	}
	for _, b := range data {
		if b == '\r' {
			p.done = true
			return []byte("\r\nauthentication ok\r\n"), 30 * time.Millisecond
		}
	}
	return nil, 0 // silence: no echo
}

// BulkStream models a bulk-output host: `tail -F` on a busy high-entropy
// log (ciphertext blobs, compressed build artifacts, base64 payloads),
// where every keystroke releases a burst of lines whose screen diff spans
// several MTU-sized fragments even after the transport's zlib pass. Each
// reply therefore leaves the daemon as a run of equal-length datagrams to
// one peer.
type BulkStream struct {
	rng   *rand.Rand
	lines int
}

// bulkAlphabet is wide enough (~6.5 bits/char of rng entropy) that zlib
// cannot collapse a burst below a few MTUs.
const bulkAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=!@#$%^&*()-_[]{};:,.<>?|~"

// NewBulkStream returns a bulk-output model emitting lines log lines per
// keystroke (<=0 selects the default burst, which more than fills a
// 64-row window so the reply diff spans ~8 fragments at the transport's
// 1200-byte MTU).
func NewBulkStream(seed int64, lines int) *BulkStream {
	if lines <= 0 {
		lines = 96
	}
	return &BulkStream{rng: rand.New(rand.NewSource(seed)), lines: lines}
}

// Start fills the screen with the stream's tail.
func (t *BulkStream) Start() []byte { return t.emit(24) }

// bulkLineWidth sizes each log line for a large window (the screen diff
// is bounded by one screenful, so wide rows — a dashboard or build log on
// a modern full-screen terminal — are what make replies span many MTUs).
const bulkLineWidth = 160

func (t *BulkStream) emit(n int) []byte {
	const width = bulkLineWidth
	b := make([]byte, 0, n*(width+2))
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			b = append(b, bulkAlphabet[t.rng.Intn(len(bulkAlphabet))])
		}
		b = append(b, '\r', '\n')
	}
	return b
}

// Input implements App: any keystroke streams the next burst. The think
// time is short and tight (1-3 ms) — a log follower releases its backlog
// as fast as the pty hands it over, which is what keeps correlated bursts
// across sessions concentrated into shared egress sweeps.
func (t *BulkStream) Input(data []byte) ([]byte, time.Duration) {
	return t.emit(t.lines), time.Duration(1+t.rng.Intn(3)) * time.Millisecond
}
