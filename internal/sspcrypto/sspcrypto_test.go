package sspcrypto

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/ocb"
)

// testKey is the key of testSession.
var testKey = func() (k Key) {
	for i := range k {
		k[i] = byte(i * 7)
	}
	return k
}()

func testSession(t testing.TB) *Session {
	t.Helper()
	s, err := NewSession(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := testSession(t)
	for _, dir := range []Direction{ToServer, ToClient} {
		pkt, err := s.Encrypt(dir, 42, []byte("keystroke"))
		if err != nil {
			t.Fatal(err)
		}
		gotDir, seq, pt, err := s.Decrypt(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if gotDir != dir || seq != 42 || string(pt) != "keystroke" {
			t.Fatalf("got dir=%v seq=%d pt=%q", gotDir, seq, pt)
		}
	}
}

func TestDirectionsDoNotCollide(t *testing.T) {
	s := testSession(t)
	a, _ := s.Encrypt(ToServer, 7, []byte("same"))
	b, _ := s.Encrypt(ToClient, 7, []byte("same"))
	// The headers differ, and so would the tags under one nonce; the
	// ciphertexts differ only if the nonces do.
	if bytes.Equal(a[1:len(a)-16], b[1:len(b)-16]) {
		t.Fatal("same seq in both directions produced identical ciphertext")
	}
}

func TestTamperedHeaderRejected(t *testing.T) {
	s := testSession(t)
	pkt, _ := s.Encrypt(ToServer, 9, []byte("hello"))
	for _, flip := range []byte{0x01, 0x02, 0x40} {
		// A well-formed header naming another direction or sequence
		// number: the nonce/AD check must fail.
		pkt[0] ^= flip
		if _, _, _, err := s.Decrypt(pkt); err != ErrAuth {
			t.Fatalf("header %#x: err = %v, want ErrAuth", pkt[0], err)
		}
		pkt[0] ^= flip
	}
	// The same header re-encoded non-minimally (the same value in two
	// bytes) is refused by the header parser, not the AEAD, so each
	// (direction, sequence number) has one wire form.
	padded := append([]byte{pkt[0] | 0x80, 0x00}, pkt[1:]...)
	if _, _, _, err := s.Decrypt(padded); err != ErrHeader {
		t.Fatalf("non-minimal header: err = %v, want ErrHeader", err)
	}
}

func TestTamperedBodyRejected(t *testing.T) {
	s := testSession(t)
	pkt, _ := s.Encrypt(ToServer, 9, []byte("hello"))
	pkt[10] ^= 1
	if _, _, _, err := s.Decrypt(pkt); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

// TestSeqHeaderLength pins the header's length at each 7-bit boundary of
// seq<<1 | dir: 1 B below 64, 2 B below 8 192, 3 B from a journal restore's
// 2^16 reservation, and 10 B at MaxSeq. Both directions cost the same, the
// packet is exactly that much longer than its ciphertext and tag, and
// SeqHeaderLen agrees.
func TestSeqHeaderLength(t *testing.T) {
	s := testSession(t)
	block, err := aes.NewCipher(testKey[:])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ocb.New(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seq  uint64
		want int
	}{
		{0, 1},
		{63, 1},
		{64, 2},
		{8191, 2},
		{8192, 3},
		{1 << 16, 3},
		{MaxSeq, 10},
	} {
		if got := SeqHeaderLen(tc.seq); got != tc.want {
			t.Errorf("seq %d: SeqHeaderLen = %d, want %d", tc.seq, got, tc.want)
		}
		for _, dir := range []Direction{ToServer, ToClient} {
			pkt, err := s.Encrypt(dir, tc.seq, []byte("ab"))
			if err != nil {
				t.Fatal(err)
			}
			gotDir, seq, sealed, err := ParseSeqHeader(pkt)
			if err != nil || gotDir != dir || seq != tc.seq {
				t.Fatalf("seq %d %v: ParseSeqHeader = %v, %d, %v", tc.seq, dir, gotDir, seq, err)
			}
			n := len(pkt) - len(sealed)
			if n != tc.want || len(sealed) != len("ab")+16 {
				t.Errorf("seq %d %v: header % x is %d B, want %d", tc.seq, dir, pkt[:n], n, tc.want)
			}
			// The nonce is the full (direction, sequence number), as
			// with the fixed 8-byte header, and the header is the
			// associated data.
			var nonce [12]byte
			binary.BigEndian.PutUint64(nonce[4:], uint64(dir)<<63|tc.seq)
			if want := ref.Seal(nil, nonce[:], []byte("ab"), pkt[:n]); !bytes.Equal(sealed, want) {
				t.Errorf("seq %d %v: sealed % x, want % x", tc.seq, dir, sealed, want)
			}
		}
	}
	if s.Overhead() != MaxSeqHeaderLen+16 {
		t.Errorf("Overhead = %d, want %d", s.Overhead(), MaxSeqHeaderLen+16)
	}
}

// FuzzSeqHeader: arbitrary bytes never panic the parser or Decrypt, any
// header the parser accepts is exactly the encoding of what it names, any
// packet that opens reseals to the same bytes, and sealing under any
// direction and sequence number up to MaxSeq round-trips.
func FuzzSeqHeader(f *testing.F) {
	f.Add([]byte{0x00}, uint64(0), false)
	s := testSession(f)
	f.Fuzz(func(t *testing.T, packet []byte, seq uint64, toClient bool) {
		if dir, got, sealed, err := ParseSeqHeader(packet); err != nil {
			if err != ErrHeader || sealed != nil {
				t.Fatalf("% x: ParseSeqHeader = %v, %v", packet, sealed, err)
			}
		} else if n := len(packet) - len(sealed); !bytes.Equal(appendSeqHeader(dir, got), packet[:n]) {
			t.Fatalf("% x: ParseSeqHeader = %v %d after %d B, whose header is % x", packet, dir, got, n, appendSeqHeader(dir, got))
		}
		if dir, got, pt, err := s.Decrypt(packet); err == nil {
			again, err := s.Encrypt(dir, got, pt)
			if err != nil || !bytes.Equal(again, packet) {
				t.Fatalf("% x opened as %v %d but reseals to % x, %v", packet, dir, got, again, err)
			}
		}
		dir := ToServer
		if toClient {
			dir = ToClient
		}
		pkt, err := s.Encrypt(dir, seq, packet)
		if seq > MaxSeq {
			if err != ErrSeqRange {
				t.Fatalf("seq %d: err = %v, want ErrSeqRange", seq, err)
			}
			return
		}
		gotDir, gotSeq, pt, err := s.Decrypt(pkt)
		if err != nil || gotDir != dir || gotSeq != seq || !bytes.Equal(pt, packet) {
			t.Fatalf("seq %d %v: Decrypt = %v %d %v", seq, dir, gotDir, gotSeq, err)
		}
	})
}

// appendSeqHeader is the header of (dir, seq) as the format defines it:
// the minimal uvarint of seq<<1 | dir.
func appendSeqHeader(dir Direction, seq uint64) []byte {
	return binary.AppendUvarint(nil, seq<<1|uint64(dir))
}
func TestWrongKeyRejected(t *testing.T) {
	s := testSession(t)
	other, err := NewSession(Key{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pkt, _ := s.Encrypt(ToClient, 1, []byte("x"))
	if _, _, _, err := other.Decrypt(pkt); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestShortPacket(t *testing.T) {
	s := testSession(t)
	if _, _, _, err := s.Decrypt(make([]byte, 10)); err != ErrTooShort {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestSeqRange(t *testing.T) {
	s := testSession(t)
	if _, err := s.Encrypt(ToServer, MaxSeq+1, nil); err != ErrSeqRange {
		t.Fatalf("err = %v, want ErrSeqRange", err)
	}
	pkt, err := s.Encrypt(ToServer, MaxSeq, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, seq, _, err := s.Decrypt(pkt)
	if err != nil || seq != MaxSeq {
		t.Fatalf("max seq round trip: seq=%d err=%v", seq, err)
	}
}

func TestKeyBase64RoundTrip(t *testing.T) {
	k, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	enc := k.Base64()
	if len(enc) != 22 {
		t.Fatalf("encoded key %q has length %d, want 22", enc, len(enc))
	}
	back, err := KeyFromBase64(enc)
	if err != nil || back != k {
		t.Fatalf("round trip failed: %v", err)
	}
	// Padded form must also parse (users paste both).
	back, err = KeyFromBase64(enc + "==")
	if err != nil || back != k {
		t.Fatalf("padded round trip failed: %v", err)
	}
}

func TestKeyFromBase64Errors(t *testing.T) {
	if _, err := KeyFromBase64("!!!"); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := KeyFromBase64("AAAA"); err == nil {
		t.Fatal("accepted short key")
	}
}

func TestRandomKeysDiffer(t *testing.T) {
	a, _ := NewRandomKey()
	b, _ := NewRandomKey()
	if a == b {
		t.Fatal("two random keys identical")
	}
}

func TestEncryptDecryptProperty(t *testing.T) {
	s := testSession(t)
	f := func(payload []byte, seq uint64, toClient bool) bool {
		seq &= MaxSeq
		dir := ToServer
		if toClient {
			dir = ToClient
		}
		pkt, err := s.Encrypt(dir, seq, payload)
		if err != nil {
			return false
		}
		gotDir, gotSeq, pt, err := s.Decrypt(pkt)
		return err == nil && gotDir == dir && gotSeq == seq && bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncryptDatagram(b *testing.B) {
	s := testSession(b)
	payload := make([]byte, 200) // typical SSP instruction size
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(ToClient, uint64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}
