package transport

import (
	"encoding/binary"
	"errors"
	"hash/adler32"
	"math/bits"
	"slices"
)

// The receive path's zlib decoder: RFC 1950 framing around RFC 1951
// deflate, decoded straight from the joined payload into the scratch the
// instruction is rebuilt in. There is no reader stack, no window and no
// state beyond one stack frame, so a warm decode allocates nothing. It
// accepts exactly the streams compress/zlib accepts when given no
// dictionary, and yields the same bytes (FuzzInflate holds it to that with
// compress/zlib as the oracle); the sender keeps compress/zlib's deflate.

var (
	errZlibHeader   = errors.New("zlib: invalid header")
	errZlibChecksum = errors.New("zlib: invalid checksum")
	errTruncated    = errors.New("deflate: truncated stream")
	errCorrupt      = errors.New("deflate: corrupt stream")
	errOverLimit    = errors.New("inflates past the limit")
)

// inflate decompresses the zlib stream z into dst's storage. A stream that
// inflates past maxDecompressed is an error, never a truncated
// instruction: decoding stops before the byte that would cross the limit.
// Bytes after the Adler-32 trailer are ignored, as compress/zlib ignores
// them.
func inflate(dst, z []byte) ([]byte, error) {
	out := dst[:0]
	if len(z) < 2 {
		return out, errTruncated
	}
	// CMF: deflate (CM 8) with a window of at most 32 KiB (CINFO ≤ 7); the
	// header as a big-endian uint16 is a multiple of 31.
	if z[0]&0x0f != 8 || z[0]>>4 > 7 || binary.BigEndian.Uint16(z)%31 != 0 {
		return out, errZlibHeader
	}
	pos := 2
	if z[1]&0x20 != 0 {
		// FDICT: no dictionary is ever preset, and like compress/zlib given
		// none, a stream naming the empty dictionary (Adler-32 1) is taken.
		if len(z) < 6 {
			return out, errTruncated
		}
		if binary.BigEndian.Uint32(z[2:]) != 1 {
			return out, errZlibHeader
		}
		pos = 6
	}
	d := decoder{in: z, pos: pos}
	out, err := d.blocks(out)
	if err != nil {
		return out, err
	}
	d.alignToByte()
	if len(z)-d.pos < 4 {
		return out, errTruncated
	}
	if binary.BigEndian.Uint32(z[d.pos:]) != adler32.Checksum(out) {
		return out, errZlibChecksum
	}
	return out, nil
}

const (
	maxCodeLen = 15
	// tableBits is the width of a code's first-level lookup table; a code
	// longer than that takes the slow path.
	tableBits = 9
	tableMask = 1<<tableBits - 1
	// matchBits is the most a match can need after its length code: 5
	// extra bits, a 15-bit distance code and 13 extra bits. A refill leaves
	// at least 56 bits buffered unless the input is nearly spent, so the
	// decode loop refills once for several literals, and a match needs at
	// most one more.
	matchBits = 5 + maxCodeLen + 13
)

// huffman is one canonical Huffman code (RFC 1951 §3.2.2). table maps the
// next tableBits bits of the stream, least significant first, to
// symbol<<4 | length for every code at most tableBits long. An entry of 0
// sends the decoder to the slow path, which walks count and sorted one bit
// at a time: longer codes, and patterns no code covers.
type huffman struct {
	table  [1 << tableBits]uint16
	count  [maxCodeLen + 1]uint16 // codes of each length
	sorted [288]uint16            // symbols in code order
}

// build makes the code for lengths, one per symbol, 0 for an unused one.
// Like compress/flate it refuses a set that over-subscribes the code space
// or leaves part of it unused, except for the empty code and a lone 1-bit
// code; those fail only if decoding reaches a pattern they leave unused.
func (h *huffman) build(lengths []uint8) bool {
	h.count = [maxCodeLen + 1]uint16{}
	for _, l := range lengths {
		h.count[l]++
	}
	h.count[0] = 0
	var offs [maxCodeLen + 1]uint16
	left := 1 // patterns unassigned at the current length
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - int(h.count[l])
		if left < 0 {
			return false
		}
		if l < maxCodeLen {
			offs[l+1] = offs[l] + h.count[l]
		}
	}
	if n := int(offs[maxCodeLen]) + int(h.count[maxCodeLen]); left != 0 && n != 0 && !(n == 1 && h.count[1] == 1) {
		return false
	}
	for sym, l := range lengths {
		if l != 0 {
			h.sorted[offs[l]] = uint16(sym)
			offs[l]++
		}
	}
	h.table = [1 << tableBits]uint16{}
	code, k := 0, 0
	for l := 1; l <= tableBits; l++ {
		for range h.count[l] {
			entry := h.sorted[k]<<4 | uint16(l)
			for i := int(bits.Reverse16(uint16(code)) >> (16 - l)); i < len(h.table); i += 1 << l {
				h.table[i] = entry
			}
			code++
			k++
		}
		code <<= 1
	}
	return true
}

// The fixed codes of a type-1 block (RFC 1951 §3.2.6). Their literal/length
// symbols 286 and 287 and distance codes 30 and 31 have codes but no
// meaning, and decoding one is an error.
var fixedLit, fixedDist huffman

func init() {
	var lengths [288]uint8
	for i := range lengths {
		switch {
		case i < 144:
			lengths[i] = 8
		case i < 256:
			lengths[i] = 9
		case i < 280:
			lengths[i] = 7
		default:
			lengths[i] = 8
		}
	}
	fixedLit.build(lengths[:])
	for i := range 32 {
		lengths[i] = 5
	}
	fixedDist.build(lengths[:32])
}

// Length symbols 257–285 and distance codes 0–29: base values and extra bits.
var (
	lengthBase = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeOrder is the order a dynamic block lists its code-length code in.
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// decoder reads a deflate stream through a 64-bit bit buffer. The low n
// bits of b are the stream's next n bits; bits above them are either zero
// or the stream bits that follow, so or-ing the next input in at bit n is
// always right, and beyond the end of the input they are zero.
type decoder struct {
	in  []byte
	pos int // next byte of in not yet in b
	b   uint64
	n   uint

	lit, dist huffman // the current dynamic block's codes
}

// refill tops up the bit buffer b of n bits from in at pos: 8 bytes at a
// time while they last, so that at least 56 bits are then buffered, and a
// byte at a time at the end of the input. It takes and returns the state,
// so the decode loop can keep it in registers.
func refill(in []byte, pos int, b uint64, n uint) (int, uint64, uint) {
	if pos+8 <= len(in) {
		b |= binary.LittleEndian.Uint64(in[pos:]) << n
		return pos + int(63-n)>>3, b, n | 56
	}
	for n < 56 && pos < len(in) {
		b |= uint64(in[pos]) << n
		pos++
		n += 8
	}
	return pos, b, n
}

func (d *decoder) refill() { d.pos, d.b, d.n = refill(d.in, d.pos, d.b, d.n) }

// take consumes k ≤ 32 buffered bits; it fails if fewer are buffered,
// which after a refill means the stream is truncated.
func (d *decoder) take(k uint) (int, bool) {
	if k > d.n {
		return 0, false
	}
	v := int(d.b & (1<<k - 1))
	d.b >>= k
	d.n -= k
	return v, true
}

// alignToByte drops the bits left in the current byte and points pos at the
// first byte not consumed, emptying b.
func (d *decoder) alignToByte() {
	d.pos -= int(d.n >> 3)
	d.b, d.n = 0, 0
}

// decode consumes one symbol of h from the buffered bits.
func (d *decoder) decode(h *huffman) (int, error) {
	e, err := h.lookup(d.b, d.n)
	d.b >>= e & 15
	d.n -= e & 15
	return int(e >> 4), err
}

// lookup returns symbol<<4 | code length for the symbol of h that the low n
// bits of b start with.
func (h *huffman) lookup(b uint64, n uint) (uint, error) {
	if e := uint(h.table[b&tableMask]); e&15-1 < n { // 0 < length ≤ n
		return e, nil
	}
	return h.lookupSlow(b, n)
}

// lookupSlow decodes a bit at a time, as RFC 1951 defines canonical codes:
// the i-th code of length l is first(l) + i, where first(l) follows the
// codes of every shorter length.
func (h *huffman) lookupSlow(b uint64, n uint) (uint, error) {
	code, first, index := 0, 0, 0
	for l := uint(1); l <= maxCodeLen; l++ {
		if l > n {
			return 0, errTruncated
		}
		code |= int(b>>(l-1)) & 1
		count := int(h.count[l])
		if code-first < count {
			return uint(h.sorted[index+code-first])<<4 | l, nil
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, errCorrupt
}

// blocks decodes deflate blocks onto out until the final one.
func (d *decoder) blocks(out []byte) ([]byte, error) {
	for {
		d.refill()
		hdr, ok := d.take(3)
		if !ok {
			return out, errTruncated
		}
		var err error
		switch hdr >> 1 {
		case 0:
			out, err = d.stored(out)
		case 1:
			out, err = d.codes(out, &fixedLit, &fixedDist)
		case 2:
			if err = d.dynamic(); err == nil {
				out, err = d.codes(out, &d.lit, &d.dist)
			}
		default:
			err = errCorrupt
		}
		if err != nil || hdr&1 != 0 {
			return out, err
		}
	}
}

// stored copies a type-0 block: from the next byte boundary, LEN, its
// complement NLEN, then LEN bytes.
func (d *decoder) stored(out []byte) ([]byte, error) {
	d.alignToByte()
	if len(d.in)-d.pos < 4 {
		return out, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(d.in[d.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.in[d.pos+2:]) {
		return out, errCorrupt
	}
	d.pos += 4
	if len(out)+n > maxDecompressed {
		return out, errOverLimit
	}
	if len(d.in)-d.pos < n {
		return out, errTruncated
	}
	out = append(out, d.in[d.pos:d.pos+n]...)
	d.pos += n
	return out, nil
}

// dynamic reads a type-2 block's codes into d.lit and d.dist. The
// code-length code is built in d.lit, which the literal/length code
// replaces once every length is read.
func (d *decoder) dynamic() error {
	d.refill()
	hdr, ok := d.take(14)
	if !ok {
		return errTruncated
	}
	nlit, ndist, nclen := hdr&31+257, hdr>>5&31+1, hdr>>10+4
	if nlit > 286 || ndist > 30 {
		return errCorrupt
	}
	var lengths [286 + 30]uint8
	for i := range nclen {
		d.refill()
		v, ok := d.take(3)
		if !ok {
			return errTruncated
		}
		lengths[codeOrder[i]] = uint8(v)
	}
	clen := &d.lit
	if !clen.build(lengths[:19]) {
		return errCorrupt
	}
	clear(lengths[:19])
	for i, n := 0, nlit+ndist; i < n; {
		d.refill()
		sym, err := d.decode(clen)
		if err != nil {
			return err
		}
		if sym < 16 {
			lengths[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3–6 times, 17 zero 3–10 times and
		// 18 zero 11–138 times.
		var rep int
		var extra uint
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return errCorrupt
			}
			rep, extra, v = 3, 2, lengths[i-1]
		case 17:
			rep, extra = 3, 3
		default:
			rep, extra = 11, 7
		}
		x, ok := d.take(extra)
		if !ok {
			return errTruncated
		}
		if rep += x; i+rep > n {
			return errCorrupt
		}
		for range rep {
			lengths[i] = v
			i++
		}
	}
	if !d.lit.build(lengths[:nlit]) || !d.dist.build(lengths[nlit:nlit+ndist]) {
		return errCorrupt
	}
	return nil
}

// codes decodes a Huffman-coded block's symbols onto out until its
// end-of-block symbol. A match is copied from out itself, which holds the
// whole output so far, so any distance up to its length is in reach. The
// bit buffer lives in locals here and goes back to d at the end of the
// block.
func (d *decoder) codes(out []byte, lit, dist *huffman) ([]byte, error) {
	in, pos, b, n := d.in, d.pos, d.b, d.n
	for {
		if n < maxCodeLen {
			pos, b, n = refill(in, pos, b, n)
		}
		// lit.lookup, written out because the compiler does not inline it:
		// this is the loop a frame's literals go through.
		e := uint(lit.table[b&tableMask])
		if e&15-1 >= n {
			var err error
			if e, err = lit.lookupSlow(b, n); err != nil {
				return out, err
			}
		}
		b >>= e & 15
		n -= e & 15
		if e < 256<<4 {
			if len(out) == maxDecompressed {
				return out, errOverLimit
			}
			out = append(out, byte(e>>4))
			continue
		}
		sym := int(e >> 4)
		if sym == 256 {
			d.pos, d.b, d.n = pos, b, n
			return out, nil
		}
		if sym -= 257; sym >= len(lengthBase) {
			return out, errCorrupt
		}
		if n < matchBits {
			pos, b, n = refill(in, pos, b, n)
		}
		k := uint(lengthExtra[sym])
		if k > n {
			return out, errTruncated
		}
		length := int(lengthBase[sym]) + int(b&(1<<k-1))
		b >>= k
		n -= k
		e, err := dist.lookup(b, n)
		if err != nil {
			return out, err
		}
		b >>= e & 15
		n -= e & 15
		if sym = int(e >> 4); sym >= len(distBase) {
			return out, errCorrupt
		}
		if k = uint(distExtra[sym]); k > n {
			return out, errTruncated
		}
		distance := int(distBase[sym]) + int(b&(1<<k-1))
		b >>= k
		n -= k
		if distance > len(out) {
			return out, errCorrupt
		}
		at, end := len(out), len(out)+length
		if end > maxDecompressed {
			return out, errOverLimit
		}
		out = slices.Grow(out, length)[:end]
		// Each pass copies everything from the match's start to the write
		// position, so an overlapping match doubles its span per pass.
		for i := at; i < end; {
			i += copy(out[i:end], out[at-distance:i])
		}
	}
}
