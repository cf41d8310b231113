// Package trace generates and replays keystroke traces in the style of the
// paper's evaluation workload (§4): about 40 hours of usage from six users
// totalling ~9,986 keystrokes across shells, editors, mail readers and
// password prompts, with roughly 70% of keystrokes being predictable
// "typing" and the rest "navigation" and control keys.
//
// The paper's actual traces are unpublished, so the generator synthesizes
// sessions with the same published properties. Each step records the keystroke, its kind, and the host
// application's prerecorded response — exactly the replay format the
// paper's measurement used. Long idle periods are already "sped up" the
// way the paper describes.
package trace

import (
	"math/rand"
	"time"

	"repro/internal/host"
)

// Kind classifies a keystroke the way the paper's analysis does.
type Kind int

const (
	// Typing is a printable character the host is expected to echo —
	// the predictable ~70%.
	Typing Kind = iota
	// Navigation moves around an application (mail index, pager, arrow
	// keys): the effect is a screen change no local engine can guess.
	Navigation
	// Control is ENTER, backspace, ^C and friends.
	Control
)

func (k Kind) String() string {
	switch k {
	case Typing:
		return "typing"
	case Navigation:
		return "navigation"
	default:
		return "control"
	}
}

// Step is one keystroke with its prerecorded host response.
type Step struct {
	// At is when the user presses the key (trace-relative).
	At time.Duration
	// Data is the keystroke as host bytes.
	Data []byte
	// Kind classifies the keystroke.
	Kind Kind
	// Response is the host's prerecorded output (nil if none).
	Response []byte
	// ResponseDelay is the host's processing time before writing.
	ResponseDelay time.Duration
}

// Trace is one user's session.
type Trace struct {
	Width  int
	Height int
	// Startup is the host output before the first keystroke.
	Startup []byte
	Steps   []Step
}

// Duration returns the trace length (last keystroke time plus slack).
func (t *Trace) Duration() time.Duration {
	if len(t.Steps) == 0 {
		return 0
	}
	return t.Steps[len(t.Steps)-1].At + 2*time.Second
}

// generator accumulates steps while driving host models.
type generator struct {
	rng   *rand.Rand
	now   time.Duration
	steps []Step
}

func (g *generator) key(data []byte, kind Kind, app host.App, gap time.Duration) {
	g.now += gap
	resp, delay := app.Input(data)
	g.steps = append(g.steps, Step{
		At:            g.now,
		Data:          append([]byte(nil), data...),
		Kind:          kind,
		Response:      resp,
		ResponseDelay: delay,
	})
}

// typingGap is a realistic inter-key interval: real-world typing averages
// roughly three keystrokes per second once hesitations between words are
// included (the paper replayed its traces with recorded keystroke timing).
func (g *generator) typingGap() time.Duration {
	return time.Duration(150+g.rng.Intn(300)) * time.Millisecond
}

// thinkGap is a pause while the user reads output or decides what to do
// next (already sped up, but never shorter than a human actually pauses
// after seeing a screenful change).
func (g *generator) thinkGap() time.Duration {
	return time.Duration(1200+g.rng.Intn(2800)) * time.Millisecond
}

var words = []string{
	"ls", "cd", "git status", "make test", "grep -r main", "cat notes.txt",
	"the", "quick", "system", "paper", "terminal", "network", "latency",
	"packet", "mobile", "shell", "editor", "process", "remote", "session",
}

// shellBurst types a command and runs it; occasionally the command opens
// a pager the user pages through (pure navigation).
func (g *generator) shellBurst(app host.App) {
	cmd := words[g.rng.Intn(len(words))]
	g.now += g.thinkGap()
	for _, r := range cmd {
		g.key([]byte(string(r)), Typing, app, g.typingGap())
	}
	if g.rng.Intn(6) == 0 { // typo + correction
		g.key([]byte{0x7f}, Control, app, g.typingGap())
		g.key([]byte("s"), Typing, app, g.typingGap())
	}
	g.key([]byte{'\r'}, Control, app, g.typingGap())
	if g.rng.Intn(3) == 0 { // man page / git log through a pager
		pager := host.NewPager(g.rng.Int63())
		n := 2 + g.rng.Intn(5)
		for i := 0; i < n; i++ {
			g.key([]byte{' '}, Navigation, pager, g.thinkGap())
		}
		g.key([]byte{'q'}, Navigation, pager, g.thinkGap())
	}
}

// editorBurst types prose with occasional arrow-key movement.
func (g *generator) editorBurst(app *host.Editor) {
	g.now += g.thinkGap()
	// People compose prose in long runs: that is what makes most typing
	// land in an already-confirmed epoch and display instantly.
	n := 7 + g.rng.Intn(12)
	for i := 0; i < n; i++ {
		w := words[g.rng.Intn(len(words))]
		for _, r := range w {
			g.key([]byte(string(r)), Typing, app, g.typingGap())
		}
		g.key([]byte(" "), Typing, app, g.typingGap())
	}
	moves := g.rng.Intn(3)
	arrows := [][]byte{{0x1b, '[', 'A'}, {0x1b, '[', 'B'}, {0x1b, '[', 'C'}, {0x1b, '[', 'D'}}
	for i := 0; i < moves; i++ {
		g.key(arrows[g.rng.Intn(4)], Navigation, app, g.typingGap()+100*time.Millisecond)
	}
	if g.rng.Intn(4) == 0 {
		g.key([]byte{'\r'}, Control, app, g.typingGap())
	}
}

// composeBurst models writing an email or document paragraph: a long
// uninterrupted typing run (tens of seconds), the dominant activity in the
// paper's corpus ("emails, chat, editing") and the reason most keystrokes
// land in an already-confirmed prediction epoch.
func (g *generator) composeBurst(app *host.Editor) {
	// Composition runs for a minute or more at a stretch — far longer
	// than even a badly bufferbloated round trip, which is what lets the
	// prediction epoch confirm and the bulk of the run display locally.
	g.now += g.thinkGap()
	n := 35 + g.rng.Intn(25)
	for i := 0; i < n; i++ {
		w := words[g.rng.Intn(len(words))]
		for _, r := range w {
			g.key([]byte(string(r)), Typing, app, g.typingGap())
		}
		g.key([]byte(" "), Typing, app, g.typingGap())
	}
	if g.rng.Intn(3) == 0 {
		g.key([]byte{'\r'}, Control, app, g.typingGap())
	}
}

// mailBurst navigates messages.
func (g *generator) mailBurst(app host.App) {
	n := 25 + g.rng.Intn(30)
	for i := 0; i < n; i++ {
		keys := []byte{'n', 'n', 'n', 'p', '\r', ' '}
		k := keys[g.rng.Intn(len(keys))]
		kind := Navigation
		g.key([]byte{k}, kind, app, g.thinkGap())
	}
}

// passwordBurst types a password blind.
func (g *generator) passwordBurst(app host.App) {
	g.now += g.thinkGap()
	for i := 0; i < 8; i++ {
		g.key([]byte{byte('a' + g.rng.Intn(26))}, Typing, app, g.typingGap())
	}
	g.key([]byte{'\r'}, Control, app, g.typingGap())
}

// Profile weights the activities a user performs.
type Profile struct {
	Shell   int // relative weight of shell bursts
	Editor  int
	Compose int // long prose runs (email/chat/document writing)
	Mail    int
	Passwd  int
}

// SixProfiles are the six users of the evaluation, with different
// application mixes (shell-heavy, editor-heavy, mail-heavy, chat-like...).
// The weights are tuned so that the aggregate keystroke mix lands near the
// paper's ~70% typing.
func SixProfiles() []Profile {
	return []Profile{
		{Shell: 8, Editor: 1, Compose: 1, Mail: 3, Passwd: 1}, // user1-shell
		{Shell: 2, Editor: 4, Compose: 4, Mail: 3, Passwd: 0}, // user2-editor
		{Shell: 2, Editor: 1, Compose: 1, Mail: 8, Passwd: 0}, // user3-mail
		{Shell: 4, Editor: 2, Compose: 2, Mail: 4, Passwd: 1}, // user4-mixed
		{Shell: 2, Editor: 2, Compose: 6, Mail: 3, Passwd: 0}, // user5-chat
		{Shell: 7, Editor: 1, Compose: 1, Mail: 3, Passwd: 2}, // user6-ops
	}
}

// Generate synthesizes one user's trace with approximately targetKeys
// keystrokes.
func Generate(seed int64, p Profile, targetKeys int) *Trace {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	shell := host.NewShell(seed + 1)
	editor := host.NewEditor(seed+2, 80)
	mail := host.NewMailReader(seed + 3)

	tr := &Trace{Width: 80, Height: 24, Startup: shell.Start()}

	total := p.Shell + p.Editor + p.Compose + p.Mail + p.Passwd
	if total == 0 {
		total, p.Shell = 1, 1
	}
	for len(g.steps) < targetKeys {
		x := g.rng.Intn(total)
		switch {
		case x < p.Shell:
			g.shellBurst(shell)
		case x < p.Shell+p.Editor:
			g.editorBurst(editor)
		case x < p.Shell+p.Editor+p.Compose:
			g.composeBurst(editor)
		case x < p.Shell+p.Editor+p.Compose+p.Mail:
			g.mailBurst(mail)
		default:
			// "sudo something" → ENTER brings up the password prompt.
			pw := host.NewPasswordPrompt()
			g.now += g.thinkGap()
			g.steps = append(g.steps, Step{
				At: g.now, Data: []byte{'\r'}, Kind: Control,
				Response: pw.Start(), ResponseDelay: 5 * time.Millisecond,
			})
			g.passwordBurst(pw)
		}
	}
	tr.Steps = g.steps
	return tr
}

// SixUsers generates the evaluation workload: one trace per profile of
// keys keystrokes, user i seeded seed+1000i. At the paper's scale (1664
// keys) the six total close to its 9,986 keystrokes.
func SixUsers(seed int64, keys int) []*Trace {
	profiles := SixProfiles()
	traces := make([]*Trace, len(profiles))
	for i, p := range profiles {
		traces[i] = Generate(seed+int64(i)*1000, p, keys)
	}
	return traces
}
