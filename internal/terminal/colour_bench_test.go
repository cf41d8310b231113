package terminal

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The coloured-output benchmarks time what the server does per keystroke —
// feed the host's bytes to the emulator, snapshot, diff against the previous
// snapshot — on screens whose rows carry several renditions each, the case
// every row palette lookup serves:
//
//   - editor: a syntax-highlighted 132×43 source view scrolled a line per
//     keystroke and redrawn in full, as a pager or editor does;
//   - listing: `ls --color -l` output scrolling through a 162×64 screen, six
//     entries per keystroke, over a freshly recycled row each line;
//   - prompt: typing at a coloured shell prompt on an 80×24 screen, a
//     command of 30 keys answered by two coloured output lines;
//   - log: a follower of a coloured log releasing 96 lines a keystroke, so
//     each frame repaints all 162×64 cells, four renditions a row.
//
// Each reports write (Emulator.Write of one keystroke's output, then the
// snapshot the sender takes, so every row written is a copy-on-write clone)
// and diff (FrameWriter.AppendFrame of one incremental frame) separately.
func BenchmarkColouredOutput(b *testing.B) {
	for _, s := range colouredScreens() {
		b.Run(s.name+"/write", func(b *testing.B) {
			e := NewEmulator(s.w, s.h)
			e.WriteString(s.start)
			snap := e.Framebuffer().Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Write(s.keys[i%len(s.keys)])
				snap = e.Framebuffer().CloneInto(snap)
			}
		})
		b.Run(s.name+"/diff", func(b *testing.B) {
			e := NewEmulator(s.w, s.h)
			e.WriteString(s.start)
			snaps := []*Framebuffer{e.Framebuffer().Clone()}
			for _, k := range s.keys {
				e.Write(k)
				snaps = append(snaps, e.Framebuffer().Clone())
			}
			var fw FrameWriter
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(s.keys)
				buf = fw.AppendFrame(buf[:0], true, snaps[j], snaps[j+1])
			}
		})
	}
}

// colouredScreen is one benchmark screen: its size, the bytes that draw it
// and one output per keystroke, replayed round-robin.
type colouredScreen struct {
	name  string
	w, h  int
	start string
	keys  [][]byte
}

// SGR sequences of a typical dark-theme highlighter and of GNU ls's default
// LS_COLORS.
const (
	sgrKeyword = "\x1b[1;34m"
	sgrType    = "\x1b[36m"
	sgrString  = "\x1b[32m"
	sgrNumber  = "\x1b[35m"
	sgrComment = "\x1b[3;38;5;244m"
	sgrLineNo  = "\x1b[38;5;242m"
	sgrOff     = "\x1b[0m"
)

func colouredScreens() []colouredScreen {
	rng := rand.New(rand.NewSource(1))
	words := []string{"ctx", "buf", "n", "err", "row", "cells", "frame", "state", "width", "next"}
	keywords := []string{"func", "return", "if", "for", "range", "var", "switch", "case"}
	types := []string{"int", "string", "[]byte", "*Row", "error", "bool"}
	var src []string
	for len(src) < 256 {
		var l strings.Builder
		l.WriteString(strings.Repeat("\t", rng.Intn(3)))
		for l.Len() < 20+rng.Intn(80) {
			switch rng.Intn(6) {
			case 0:
				l.WriteString(sgrKeyword + keywords[rng.Intn(len(keywords))] + sgrOff + " ")
			case 1:
				l.WriteString(sgrType + types[rng.Intn(len(types))] + sgrOff + " ")
			case 2:
				fmt.Fprintf(&l, "%s%q%s, ", sgrString, words[rng.Intn(len(words))], sgrOff)
			case 3:
				fmt.Fprintf(&l, "%s%d%s ", sgrNumber, rng.Intn(4096), sgrOff)
			default:
				l.WriteString(words[rng.Intn(len(words))] + " = ")
			}
		}
		if rng.Intn(4) == 0 {
			l.WriteString(sgrComment + "// " + words[rng.Intn(len(words))] + " is reused" + sgrOff)
		}
		src = append(src, strings.ReplaceAll(l.String(), "\t", "    "))
	}
	editorView := func(top int) []byte {
		var b strings.Builder
		for y := 0; y < 42; y++ {
			fmt.Fprintf(&b, "\x1b[%d;1H%s%4d%s %s\x1b[K", y+1, sgrLineNo, top+y+1, sgrOff, src[(top+y)%len(src)])
		}
		fmt.Fprintf(&b, "\x1b[43;1H\x1b[7m main.go  line %d \x1b[K\x1b[0m\x1b[%d;6H", top+1, 1+top%42)
		return []byte(b.String())
	}
	editor := colouredScreen{name: "editor", w: 132, h: 43, start: "\x1b[2J" + string(editorView(0))}
	for top := 1; top <= 64; top++ {
		editor.keys = append(editor.keys, editorView(top))
	}

	kinds := []string{"\x1b[01;34m", "\x1b[01;32m", "\x1b[01;36m", "", "\x1b[01;31m", "\x1b[40;33;01m"}
	listing := colouredScreen{name: "listing", w: 162, h: 64, start: "\x1b[2J\x1b[64;1H"}
	for k := 0; k < 64; k++ {
		var b strings.Builder
		for i := 0; i < 6; i++ {
			kind := kinds[rng.Intn(len(kinds))]
			fmt.Fprintf(&b, "\r\n-rwxr-xr-x 1 user staff %8d Oct 19 05:%02d %s%s_%d\x1b[0m  %s%s\x1b[0m",
				rng.Intn(1<<20), rng.Intn(60), kind, words[rng.Intn(len(words))], k*6+i,
				kinds[rng.Intn(len(kinds))], words[rng.Intn(len(words))])
		}
		listing.keys = append(listing.keys, []byte(b.String()))
	}

	const prompt = "\x1b[1;32muser@remote\x1b[0m:\x1b[1;34m~/src/mosh\x1b[0m (\x1b[33mmain\x1b[0m)$ "
	shell := colouredScreen{name: "prompt", w: 80, h: 24, start: "\x1b[2J\x1b[24;1H" + prompt}
	for k := 0; k < 30; k++ {
		shell.keys = append(shell.keys, []byte{byte('a' + k%26)})
	}
	shell.keys = append(shell.keys, []byte("\r\n\x1b[01;34mbuild\x1b[0m  \x1b[01;32mrun.sh\x1b[0m  notes.txt  \x1b[01;36mlatest\x1b[0m\r\n"+
		"\x1b[31merror:\x1b[0m 2 files \x1b[1mchanged\x1b[0m\r\n"+prompt))
	// A coloured log follower: 96 lines of 160 characters a key in four
	// colour spans each, so every frame repaints the whole 162×64 screen.
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=!@#$%^&*()-_[]{};:,.<>?|~"
	log := colouredScreen{name: "log", w: 162, h: 64, start: "\x1b[2J"}
	for k := 0; k < 16; k++ {
		var b []byte
		for i := 0; i < 96; i++ {
			for j := 0; j < 160; j++ {
				if j%40 == 0 {
					b = fmt.Appendf(b, "\x1b[3%dm", 1+(k*96+i+j/40)%7)
				}
				b = append(b, alphabet[rng.Intn(len(alphabet))])
			}
			b = append(b, "\x1b[0m\r\n"...)
		}
		log.keys = append(log.keys, b)
	}
	return []colouredScreen{editor, listing, shell, log}
}
