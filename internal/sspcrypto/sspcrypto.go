// Package sspcrypto provides SSP's packet encryption: AES-128-OCB under a
// single shared session key, with the 63-bit packet sequence number (plus a
// direction bit) serving as the unique nonce. Key exchange happens
// out-of-band (the paper bootstraps over SSH), so the package deliberately
// contains no handshake — just key generation/encoding and authenticated
// packet sealing.
//
// A packet is its sequence header followed by the OCB ciphertext and tag.
// The header is the minimal unsigned varint (encoding/binary's uvarint) of
// seq<<1 | direction: 1 byte below sequence number 64, 2 below 8 192, 3
// below 1 048 576, and never more than MaxSeqHeaderLen. It is authenticated
// as associated data, and the nonce is the full 96-bit value (32 zero bits,
// then the direction bit above the sequence number), so a short header costs
// nothing in nonce uniqueness. It is self-delimiting rather than truncated:
// a receiver needs no state to read it, however long the peer went unheard.
// ParseSeqHeader is its one reader, and it accepts exactly one encoding of
// each (direction, sequence number).
//
// Because each datagram is an idempotent state diff, SSP needs no replay
// cache: the datagram layer simply discards packets whose sequence number
// is not newer than the newest seen (see internal/network).
package sspcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/ocb"
)

// KeySize is the AES-128 key length in bytes.
const KeySize = 16

// Direction marks which endpoint sealed a packet. It is folded into the
// nonce's top bit (and the header's low bit) so the two directions of a
// session can never collide on a nonce even though they share one key.
type Direction uint8

const (
	// ToServer marks client→server packets.
	ToServer Direction = 0
	// ToClient marks server→client packets.
	ToClient Direction = 1
)

func (d Direction) String() string {
	if d == ToServer {
		return "to-server"
	}
	return "to-client"
}

// MaxSeq is the largest usable sequence number; the top bit of the nonce's
// 64-bit sequence field carries the direction.
const MaxSeq uint64 = 1<<63 - 1

// MaxSeqHeaderLen is the longest sequence header, binary.MaxVarintLen64
// bytes (MaxSeq in either direction).
const MaxSeqHeaderLen = binary.MaxVarintLen64

// SeqHeaderLen is the length of the sequence header of a packet sealed under
// seq, in either direction.
func SeqHeaderLen(seq uint64) int { return (bits.Len64(seq<<1|1) + 6) / 7 }

// ParseSeqHeader splits a wire packet into its direction, its sequence
// number and the sealed remainder (ciphertext and tag), before any
// cryptography runs. A header that is missing, unterminated, longer than
// MaxSeqHeaderLen or not the minimal encoding of its value is ErrHeader, so
// each (direction, sequence number) has exactly one header.
func ParseSeqHeader(packet []byte) (dir Direction, seq uint64, sealed []byte, err error) {
	v, n := binary.Uvarint(packet)
	if n <= 0 || n != SeqHeaderLen(v>>1) {
		return 0, 0, nil, ErrHeader
	}
	return Direction(v & 1), v >> 1, packet[n:], nil
}

// Key is a 128-bit session key.
type Key [KeySize]byte

// NewRandomKey generates a key from the operating system's CSPRNG.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("sspcrypto: generating key: %w", err)
	}
	return k, nil
}

// Base64 encodes the key the way the mosh-server program prints it for the
// bootstrap script (unpadded standard base64, 22 characters).
func (k Key) Base64() string {
	return base64.RawStdEncoding.EncodeToString(k[:])
}

// KeyFromBytes parses a raw 16-byte key (the session-journal codec stores
// keys in binary rather than base64).
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) != KeySize {
		return Key{}, fmt.Errorf("sspcrypto: key is %d bytes, want %d", len(b), KeySize)
	}
	var k Key
	copy(k[:], b)
	return k, nil
}

// KeyFromBase64 parses a key printed by Base64. Padded input is accepted.
func KeyFromBase64(s string) (Key, error) {
	for len(s) > 0 && s[len(s)-1] == '=' {
		s = s[:len(s)-1]
	}
	raw, err := base64.RawStdEncoding.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("sspcrypto: decoding key: %w", err)
	}
	if len(raw) != KeySize {
		return Key{}, fmt.Errorf("sspcrypto: key is %d bytes, want %d", len(raw), KeySize)
	}
	var k Key
	copy(k[:], raw)
	return k, nil
}

// Errors returned by Decrypt.
var (
	ErrAuth     = errors.New("sspcrypto: packet failed authentication")
	ErrTooShort = errors.New("sspcrypto: packet too short")
	ErrHeader   = errors.New("sspcrypto: malformed sequence header")
	ErrSeqRange = errors.New("sspcrypto: sequence number out of range")
)

// Session seals and opens SSP datagrams under one key. A Session is not
// safe for concurrent use; each endpoint owns one.
type Session struct {
	aead cipher.AEAD
	// nonce is scratch space reused across packets; its last 8 bytes are
	// rewritten from the direction and sequence number each call.
	nonce [12]byte
}

// NewSession builds a session from a key.
func NewSession(key Key) (*Session, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sspcrypto: %w", err)
	}
	aead, err := ocb.New(block)
	if err != nil {
		return nil, err
	}
	return &Session{aead: aead}, nil
}

// Overhead bounds the per-packet expansion: the longest sequence header
// (MaxSeqHeaderLen) plus the 16-byte authenticator. A packet sealed under
// seq expands by SeqHeaderLen(seq) plus the authenticator.
func (s *Session) Overhead() int { return MaxSeqHeaderLen + s.aead.Overhead() }

// nonceFor is the 96-bit nonce of (dir, seq): 32 zero bits, the direction
// bit, then the 63-bit sequence number.
func (s *Session) nonceFor(dir Direction, seq uint64) []byte {
	binary.BigEndian.PutUint64(s.nonce[4:], uint64(dir)<<63|seq)
	return s.nonce[:]
}

// Encrypt seals plaintext as a wire packet: the sequence header (the
// minimal uvarint of seq<<1 | dir) followed by the OCB ciphertext+tag. The
// header is authenticated as associated data; the nonce is (dir, seq).
func (s *Session) Encrypt(dir Direction, seq uint64, plaintext []byte) ([]byte, error) {
	return s.SealAppend(nil, dir, seq, plaintext)
}

// SealAppend is Encrypt appending the sealed packet to dst, so callers that
// recycle wire buffers (the transport sender's fragment pool) avoid a fresh
// allocation per datagram.
func (s *Session) SealAppend(dst []byte, dir Direction, seq uint64, plaintext []byte) ([]byte, error) {
	if seq > MaxSeq {
		return nil, ErrSeqRange
	}
	start := len(dst)
	dst = binary.AppendUvarint(dst, seq<<1|uint64(dir))
	return s.aead.Seal(dst, s.nonceFor(dir, seq), plaintext, dst[start:]), nil
}

// Decrypt opens a wire packet, returning its direction, sequence number
// and plaintext. A malformed header yields ErrHeader before any AES runs;
// inauthentic packets yield ErrAuth and no plaintext.
func (s *Session) Decrypt(packet []byte) (Direction, uint64, []byte, error) {
	dir, seq, sealed, err := ParseSeqHeader(packet)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(sealed) < s.aead.Overhead() {
		return 0, 0, nil, ErrTooShort
	}
	header := packet[:len(packet)-len(sealed)]
	pt, err := s.aead.Open(nil, s.nonceFor(dir, seq), sealed, header)
	if err != nil {
		return 0, 0, nil, ErrAuth
	}
	return dir, seq, pt, nil
}
