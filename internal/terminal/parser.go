package terminal

import "unicode/utf8"

// dispatcher receives the parser's decoded actions. The Emulator is the
// production implementation; tests can supply recorders.
type dispatcher interface {
	// print draws one decoded rune at the cursor.
	print(r rune)
	// printRun draws a run of printable ASCII (every byte in 0x20..0x7e)
	// at the cursor: the same effect as print on each byte in turn.
	printRun(run []byte)
	// execute performs a C0 control function.
	execute(b byte)
	// escDispatch handles a completed ESC sequence.
	escDispatch(inter []byte, final byte)
	// csiDispatch handles a completed CSI sequence. private is the
	// leading private-marker byte ('?', '>', '=', '<') or 0.
	csiDispatch(private byte, params []int, inter []byte, final byte)
	// oscDispatch handles a completed OSC string.
	oscDispatch(data []byte)
}

type parserState int

const (
	sGround parserState = iota
	sEscape
	sEscapeInter
	sCSIEntry
	sCSIParam
	sCSIInter
	sCSIIgnore
	sOSC
	sOSCEsc    // saw ESC inside OSC (possible ST)
	sString    // DCS/SOS/PM/APC: swallowed
	sStringEsc // saw ESC inside string
)

const (
	maxParams    = 32
	maxParamVal  = 99999
	maxOSCLength = 1024
)

// Parser is an ECMA-48 escape-sequence parser in the style of the VT500
// state machine, with integrated UTF-8 decoding. Feed it bytes; it calls
// the dispatcher with decoded actions. The zero value is ready to use.
type Parser struct {
	state  parserState
	inter  []byte
	params []int
	// paramSeen tracks whether any digit arrived for the current param,
	// to distinguish "default" from explicit 0.
	curParam  int
	haveParam bool
	private   byte
	osc       []byte

	// UTF-8 assembly.
	u8buf  [4]byte
	u8n    int
	u8want int
}

func (p *Parser) reset() {
	p.state = sGround
	p.clearSeq()
}

func (p *Parser) clearSeq() {
	p.inter = p.inter[:0]
	p.params = p.params[:0]
	p.curParam = 0
	p.haveParam = false
	p.private = 0
	p.osc = p.osc[:0]
}

// Feed parses data, invoking d for every completed action. Printable ASCII
// is most of what a terminal is sent, so it does not go a byte at a time:
// in ground state with no UTF-8 sequence pending, the maximal run of bytes
// in 0x20..0x7e reaches the dispatcher in one printRun call.
func (p *Parser) Feed(data []byte, d dispatcher) {
	for i := 0; i < len(data); {
		if data[i]-0x20 < 0x5f && p.state == sGround && p.u8want == 0 {
			j := i + 1
			for j < len(data) && data[j]-0x20 < 0x5f {
				j++
			}
			d.printRun(data[i:j])
			i = j
			continue
		}
		p.feedByte(data[i], d)
		i++
	}
}

func (p *Parser) feedByte(b byte, d dispatcher) {
	// CAN and SUB abort any sequence; ESC restarts (handled per state).
	if b == 0x18 || b == 0x1a {
		p.reset()
		return
	}

	switch p.state {
	case sGround:
		p.ground(b, d)

	case sEscape:
		switch {
		case b == 0x1b:
			p.clearSeq()
		case b < 0x20:
			d.execute(b)
		case b <= 0x2f: // intermediate
			p.inter = append(p.inter, b)
			p.state = sEscapeInter
		case b == '[':
			p.clearSeq()
			p.state = sCSIEntry
		case b == ']':
			p.clearSeq()
			p.state = sOSC
		case b == 'P' || b == 'X' || b == '^' || b == '_':
			p.clearSeq()
			p.state = sString
		case b <= 0x7e:
			d.escDispatch(p.inter, b)
			p.reset()
		default:
			p.reset()
		}

	case sEscapeInter:
		switch {
		case b == 0x1b:
			p.clearSeq()
			p.state = sEscape
		case b < 0x20:
			d.execute(b)
		case b <= 0x2f:
			p.inter = append(p.inter, b)
		case b <= 0x7e:
			d.escDispatch(p.inter, b)
			p.reset()
		default:
			p.reset()
		}

	case sCSIEntry, sCSIParam, sCSIInter:
		p.csi(b, d)

	case sCSIIgnore:
		switch {
		case b == 0x1b:
			p.clearSeq()
			p.state = sEscape
		case b >= 0x40 && b <= 0x7e:
			p.reset()
		}

	case sOSC:
		switch {
		case b == 0x07: // BEL terminator
			d.oscDispatch(p.osc)
			p.reset()
		case b == 0x1b:
			p.state = sOSCEsc
		case b >= 0x20:
			if len(p.osc) < maxOSCLength {
				p.osc = append(p.osc, b)
			}
		}

	case sOSCEsc:
		if b == '\\' { // ST terminator
			d.oscDispatch(p.osc)
			p.reset()
		} else {
			// Not ST: abandon the OSC, reprocess as escape.
			p.clearSeq()
			p.state = sEscape
			p.feedByte(b, d)
		}

	case sString:
		if b == 0x1b {
			p.state = sStringEsc
		} else if b == 0x07 {
			p.reset()
		}

	case sStringEsc:
		if b == '\\' {
			p.reset()
		} else {
			p.clearSeq()
			p.state = sEscape
			p.feedByte(b, d)
		}
	}
}

func (p *Parser) ground(b byte, d dispatcher) {
	switch {
	case b == 0x1b:
		p.flushUTF8(d)
		p.clearSeq()
		p.state = sEscape
	case b < 0x20 || b == 0x7f:
		p.flushUTF8(d)
		d.execute(b)
	case b < 0x80:
		p.flushUTF8(d)
		d.print(rune(b))
	default:
		p.utf8Byte(b, d)
	}
}

// utf8Byte assembles multi-byte UTF-8 sequences.
func (p *Parser) utf8Byte(b byte, d dispatcher) {
	if p.u8want == 0 {
		switch {
		case b&0xe0 == 0xc0:
			p.u8want = 2
		case b&0xf0 == 0xe0:
			p.u8want = 3
		case b&0xf8 == 0xf0:
			p.u8want = 4
		default:
			d.print(utf8.RuneError)
			return
		}
		p.u8buf[0] = b
		p.u8n = 1
		return
	}
	if b&0xc0 != 0x80 {
		// Broken sequence: emit replacement, reprocess byte fresh.
		p.flushUTF8(d)
		p.ground(b, d)
		return
	}
	p.u8buf[p.u8n] = b
	p.u8n++
	if p.u8n == p.u8want {
		r, _ := utf8.DecodeRune(p.u8buf[:p.u8n])
		p.u8n, p.u8want = 0, 0
		d.print(r)
	}
}

// flushUTF8 terminates a dangling partial sequence with U+FFFD.
func (p *Parser) flushUTF8(d dispatcher) {
	if p.u8want != 0 {
		p.u8n, p.u8want = 0, 0
		d.print(utf8.RuneError)
	}
}

func (p *Parser) csi(b byte, d dispatcher) {
	switch {
	case b == 0x1b:
		p.clearSeq()
		p.state = sEscape
	case b < 0x20:
		d.execute(b)
	case b >= '0' && b <= '9':
		if p.state == sCSIInter {
			p.state = sCSIIgnore
			return
		}
		p.curParam = p.curParam*10 + int(b-'0')
		if p.curParam > maxParamVal {
			p.curParam = maxParamVal
		}
		p.haveParam = true
		p.state = sCSIParam
	case b == ';' || b == ':':
		if p.state == sCSIInter {
			p.state = sCSIIgnore
			return
		}
		p.pushParam()
		p.state = sCSIParam
	case b >= 0x3c && b <= 0x3f: // private markers ? > = <
		if p.state != sCSIEntry {
			p.state = sCSIIgnore
			return
		}
		p.private = b
	case b <= 0x2f: // intermediate
		p.inter = append(p.inter, b)
		p.state = sCSIInter
	case b <= 0x7e: // final
		p.pushParam()
		d.csiDispatch(p.private, p.params, p.inter, b)
		p.reset()
	default:
		p.state = sCSIIgnore
	}
}

func (p *Parser) pushParam() {
	if len(p.params) >= maxParams {
		return
	}
	if p.haveParam {
		p.params = append(p.params, p.curParam)
	} else {
		p.params = append(p.params, -1) // default marker
	}
	p.curParam = 0
	p.haveParam = false
}
