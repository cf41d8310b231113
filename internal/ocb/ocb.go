// Package ocb implements the OCB3 authenticated-encryption mode of
// operation (RFC 7253) over a 128-bit block cipher. The paper builds SSP's
// confidentiality and authenticity on AES-128 in OCB mode with a single
// shared key [Krovetz & Rogaway]; this package provides that AEAD from
// scratch on top of the standard library's AES block cipher.
//
// The implementation follows the RFC's specification directly (offset
// doubling, nonce stretching, checksum accumulation) and is validated
// against the RFC 7253 Appendix A test vectors. A block is held as two
// 64-bit words, so offsets, checksums, the nonce stretch and the whitening
// around each cipher call are word XORs and shifts.
package ocb

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"math/bits"
)

const (
	blockSize = 16
	// NonceSize is the nonce length used by this package: 12 bytes, as in
	// the RFC's AEAD_AES_128_OCB_TAGLEN128 profile. SSP uses the packet
	// sequence number as the nonce.
	NonceSize = 12
	// TagSize is the full 128-bit authenticator length.
	TagSize = 16
	// maxL bounds the precomputed L table; 2^48 blocks is far beyond any
	// datagram this package will see.
	maxL = 48
)

// ErrOpen is returned when decryption fails authentication. No plaintext is
// ever released for an inauthentic message.
var ErrOpen = errors.New("ocb: message authentication failed")

// words is a block as two big-endian words, bytes 0–7 in hi and 8–15 in lo.
type words struct{ hi, lo uint64 }

func load(b []byte) words {
	return words{binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:16])}
}

func (w words) store(b []byte) {
	binary.BigEndian.PutUint64(b, w.hi)
	binary.BigEndian.PutUint64(b[8:16], w.lo)
}

func (w words) xor(v words) words { return words{w.hi ^ v.hi, w.lo ^ v.lo} }

// double computes 2*w in GF(2^128) with the OCB polynomial.
func (w words) double() words {
	return words{w.hi<<1 | w.lo>>63, w.lo<<1 ^ (w.hi>>63)*0x87}
}

type ocb struct {
	block   cipher.Block
	lstar   words
	ldollar words
	l       [maxL]words

	// buf is the one block that crosses the cipher.Block interface. A slice
	// of a stack array there would escape on every packet; keeping it on the
	// struct makes sealing and opening allocation-free. The tradeoff is that
	// this AEAD is not safe for concurrent use — matching the documented
	// contract of sspcrypto.Session, whose endpoints each own one.
	buf [blockSize]byte
}

// New returns an OCB3 AEAD (12-byte nonce, 16-byte tag) wrapping block,
// which must have a 128-bit block size (e.g. crypto/aes).
func New(block cipher.Block) (cipher.AEAD, error) {
	if block.BlockSize() != blockSize {
		return nil, errors.New("ocb: cipher block size must be 128 bits")
	}
	o := &ocb{block: block}
	o.lstar = o.encrypt(words{})
	o.ldollar = o.lstar.double()
	o.l[0] = o.ldollar.double()
	for i := 1; i < maxL; i++ {
		o.l[i] = o.l[i-1].double()
	}
	return o, nil
}

func (o *ocb) encrypt(w words) words {
	w.store(o.buf[:])
	o.block.Encrypt(o.buf[:], o.buf[:])
	return load(o.buf[:])
}

func (o *ocb) decrypt(w words) words {
	w.store(o.buf[:])
	o.block.Decrypt(o.buf[:], o.buf[:])
	return load(o.buf[:])
}

func (o *ocb) NonceSize() int { return NonceSize }
func (o *ocb) Overhead() int  { return TagSize }

// initialOffset derives Offset_0 from the nonce per RFC 7253 §4.2.
func (o *ocb) initialOffset(nonce []byte) words {
	// Nonce = num2str(TAGLEN mod 128, 7) || zeros || 1 || N.
	// TAGLEN = 128, so the leading 7 bits are zero.
	var n [blockSize]byte
	n[blockSize-1-len(nonce)] = 1
	copy(n[blockSize-len(nonce):], nonce)
	bottom := uint(n[blockSize-1] & 0x3F)
	n[blockSize-1] &= 0xC0
	ktop := o.encrypt(load(n[:]))
	// Stretch = Ktop || (Ktop[1..64] xor Ktop[9..72]); Offset_0 is its bits
	// bottom to bottom+127. A shift by 64 yields 0, so bottom 0 needs no
	// case of its own.
	s2 := ktop.hi ^ (ktop.hi<<8 | ktop.lo>>56)
	return words{ktop.hi<<bottom | ktop.lo>>(64-bottom), ktop.lo<<bottom | s2>>(64-bottom)}
}

// hash computes the HASH(K, A) value over the associated data.
func (o *ocb) hash(ad []byte) words {
	var sum, offset words
	for i := 1; len(ad) >= blockSize; i++ {
		offset = offset.xor(o.l[bits.TrailingZeros(uint(i))])
		sum = sum.xor(o.encrypt(load(ad).xor(offset)))
		ad = ad[blockSize:]
	}
	if len(ad) > 0 {
		offset = offset.xor(o.lstar)
		var padded [blockSize]byte
		copy(padded[:], ad)
		padded[len(ad)] = 0x80
		sum = sum.xor(o.encrypt(load(padded[:]).xor(offset)))
	}
	return sum
}

// Seal encrypts and authenticates plaintext, authenticates additionalData,
// and appends the result to dst. dst may be plaintext[:0].
func (o *ocb) Seal(dst, nonce, plaintext, additionalData []byte) []byte {
	if len(nonce) != NonceSize {
		panic("ocb: incorrect nonce length")
	}
	ret, out := sliceForAppend(dst, len(plaintext)+TagSize)
	offset := o.initialOffset(nonce)
	var checksum words
	p := plaintext
	for i := 1; len(p) >= blockSize; i++ {
		offset = offset.xor(o.l[bits.TrailingZeros(uint(i))])
		x := load(p)
		checksum = checksum.xor(x)
		o.encrypt(x.xor(offset)).xor(offset).store(out)
		p, out = p[blockSize:], out[blockSize:]
	}
	if len(p) > 0 {
		offset = offset.xor(o.lstar)
		var last [blockSize]byte
		copy(last[:], p)
		x := load(last[:])
		last[len(p)] = 0x80
		checksum = checksum.xor(load(last[:]))
		x.xor(o.encrypt(offset)).store(last[:])
		out = out[copy(out, last[:len(p)]):]
	}
	tag := o.encrypt(checksum.xor(offset).xor(o.ldollar)).xor(o.hash(additionalData))
	tag.store(out)
	return ret
}

// Open authenticates and decrypts ciphertext, appending the plaintext to
// dst. It returns ErrOpen if authentication fails, with the plaintext it
// wrote zeroed. dst may be ciphertext[:0].
func (o *ocb) Open(dst, nonce, ciphertext, additionalData []byte) ([]byte, error) {
	if len(nonce) != NonceSize {
		panic("ocb: incorrect nonce length")
	}
	if len(ciphertext) < TagSize {
		return nil, ErrOpen
	}
	body := ciphertext[:len(ciphertext)-TagSize]
	expectedTag := ciphertext[len(ciphertext)-TagSize:]
	ret, out := sliceForAppend(dst, len(body))
	offset := o.initialOffset(nonce)
	var checksum words
	c, p := body, out
	for i := 1; len(c) >= blockSize; i++ {
		offset = offset.xor(o.l[bits.TrailingZeros(uint(i))])
		x := o.decrypt(load(c).xor(offset)).xor(offset)
		checksum = checksum.xor(x)
		x.store(p)
		c, p = c[blockSize:], p[blockSize:]
	}
	if len(c) > 0 {
		offset = offset.xor(o.lstar)
		var last [blockSize]byte
		copy(last[:], c)
		load(last[:]).xor(o.encrypt(offset)).store(last[:])
		copy(p, last[:len(c)])
		clear(last[len(c):])
		last[len(c)] = 0x80
		checksum = checksum.xor(load(last[:]))
	}
	var tag [blockSize]byte
	o.encrypt(checksum.xor(offset).xor(o.ldollar)).xor(o.hash(additionalData)).store(tag[:])
	if subtle.ConstantTimeCompare(tag[:], expectedTag) != 1 {
		// Wipe any released plaintext before failing.
		clear(out)
		return nil, ErrOpen
	}
	return ret, nil
}

// sliceForAppend extends in by n bytes, returning the combined slice and
// the newly-added tail (the same helper shape crypto/cipher uses).
func sliceForAppend(in []byte, n int) (head, tail []byte) {
	total := len(in) + n
	if cap(in) >= total {
		head = in[:total]
	} else {
		head = make([]byte, total)
		copy(head, in)
	}
	tail = head[len(in):]
	return
}
