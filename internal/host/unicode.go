package host

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// unicodeEchoes is the grapheme repertoire of the CJK/emoji compose
// workload: wide ideographs, emoji, and accented letters built from
// combining marks — every printed cell is non-ASCII, which is exactly the
// screen-state workload the packed interned cell model exists for.
var unicodeEchoes = []string{
	"終", "端", "同", "期", "漢", "字", "状", "態",
	"🙂", "🚀",
	"é", "ö", "á", "ū",
}

// UnicodeEditor models a raw-mode CJK/emoji compose session (an IME-driven
// editor): every printable keystroke echoes the next non-ASCII grapheme,
// with the same mid-screen editing-region repaint discipline as Editor.
type UnicodeEditor struct {
	rng          *rand.Rand
	keystrokes   int
	width        int
	sinceRepaint int
}

// NewUnicodeEditor returns a CJK/emoji editor model.
func NewUnicodeEditor(seed int64, width int) *UnicodeEditor {
	return &UnicodeEditor{rng: rand.New(rand.NewSource(seed)), width: width}
}

// Start paints the editor screen with unicode content.
func (e *UnicodeEditor) Start() []byte {
	var b strings.Builder
	b.WriteString("\x1b[2J\x1b[H")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "第%d行: 編集中の文書 🙂 café %d\r\n", i+1, i)
	}
	b.WriteString("\x1b[24;1H\x1b[7m-- 文書.txt --\x1b[0m\x1b[12;1H")
	return []byte(b.String())
}

func (e *UnicodeEditor) maybeRepaint(out []byte) []byte {
	if e.sinceRepaint >= editorRepaintEvery {
		e.sinceRepaint = 0
		out = append(out, fmt.Sprintf("\x1b[%d;1H\x1b[0J", editorRegionTop)...)
	}
	return out
}

// Input implements App: printables echo wide/combining graphemes, ENTER
// opens a fresh line, everything else redraws the status line.
func (e *UnicodeEditor) Input(data []byte) ([]byte, time.Duration) {
	e.keystrokes++
	delay := time.Duration(1+e.rng.Intn(10)) * time.Millisecond
	var out []byte
	out = e.maybeRepaint(out)
	switch {
	case len(data) == 1 && data[0] >= 0x20 && data[0] < 0x7f:
		g := unicodeEchoes[(e.keystrokes+int(data[0]))%len(unicodeEchoes)]
		out = append(out, g...)
		e.sinceRepaint += 2 // assume wide
	case len(data) == 1 && data[0] == '\r':
		out = append(out, "\r\n"...)
		e.sinceRepaint += e.width
	default:
		out = append(out, "\x1b7\x1b[24;1H\x1b[7m-- 保存 --\x1b[0m\x1b8"...)
		delay += time.Duration(e.rng.Intn(20)) * time.Millisecond
	}
	return out, delay
}

// LogTail models `tail -f` on a busy log (or a pager held on space):
// every keystroke scrolls several raw lines past.
type LogTail struct {
	rng  *rand.Rand
	line int
}

// NewLogTail returns a log stream model.
func NewLogTail(seed int64) *LogTail {
	return &LogTail{rng: rand.New(rand.NewSource(seed))}
}

// Start fills the screen with log output.
func (l *LogTail) Start() []byte { return l.emit(24) }

func (l *LogTail) emit(n int) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		l.line++
		fmt.Fprintf(&b, "%08d %s worker=%02d obj=%06x built in %dms\r\n",
			l.line, []string{"INFO", "WARN", "DEBUG"}[l.rng.Intn(3)],
			l.rng.Intn(32), l.rng.Intn(1<<24), 1+l.rng.Intn(90))
	}
	return []byte(b.String())
}

// Input implements App: any keystroke advances the stream by a few lines.
func (l *LogTail) Input(data []byte) ([]byte, time.Duration) {
	delay := time.Duration(1+l.rng.Intn(8)) * time.Millisecond
	return l.emit(3 + l.rng.Intn(3)), delay
}
