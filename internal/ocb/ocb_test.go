package ocb

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAEAD(t testing.TB) cipher.AEAD {
	t.Helper()
	key, _ := hex.DecodeString("000102030405060708090A0B0C0D0E0F")
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(block)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// RFC 7253 Appendix A sample results for AEAD_AES_128_OCB_TAGLEN128 with
// key 000102030405060708090A0B0C0D0E0F.
var rfcVectors = []struct {
	nonce, ad, pt, ct string
}{
	{"BBAA99887766554433221100", "", "", "785407BFFFC8AD9EDCC5520AC9111EE6"},
	{"BBAA99887766554433221101", "0001020304050607", "0001020304050607",
		"6820B3657B6F615A5725BDA0D3B4EB3A257C9AF1F8F03009"},
	{"BBAA99887766554433221102", "0001020304050607", "",
		"81017F8203F081277152FADE694A0A00"},
	{"BBAA99887766554433221103", "", "0001020304050607",
		"45DD69F8F5AAE72414054CD1F35D82760B2CD00D2F99BFA9"},
	{"BBAA99887766554433221104", "000102030405060708090A0B0C0D0E0F", "000102030405060708090A0B0C0D0E0F",
		"571D535B60B277188BE5147170A9A22C3AD7A4FF3835B8C5701C1CCEC8FC3358"},
	{"BBAA99887766554433221105", "000102030405060708090A0B0C0D0E0F", "",
		"8CF761B6902EF764462AD86498CA6B97"},
	{"BBAA99887766554433221106", "", "000102030405060708090A0B0C0D0E0F",
		"5CE88EC2E0692706A915C00AEB8B2396F40E1C743F52436BDF06D8FA1ECA343D"},
	{"BBAA99887766554433221107", "000102030405060708090A0B0C0D0E0F1011121314151617",
		"000102030405060708090A0B0C0D0E0F1011121314151617",
		"1CA2207308C87C010756104D8840CE1952F09673A448A122C92C62241051F57356D7F3C90BB0E07F"},
}

func TestRFC7253Vectors(t *testing.T) {
	a := mustAEAD(t)
	for i, v := range rfcVectors {
		nonce, ad, pt := unhex(t, v.nonce), unhex(t, v.ad), unhex(t, v.pt)
		want := unhex(t, v.ct)
		got := a.Seal(nil, nonce, pt, ad)
		if !bytes.Equal(got, want) {
			t.Errorf("vector %d: Seal = %X, want %X", i, got, want)
			continue
		}
		back, err := a.Open(nil, nonce, got, ad)
		if err != nil {
			t.Errorf("vector %d: Open failed: %v", i, err)
			continue
		}
		if !bytes.Equal(back, pt) {
			t.Errorf("vector %d: round trip = %X, want %X", i, back, pt)
		}
	}
}

func TestTamperedCiphertextRejected(t *testing.T) {
	a := mustAEAD(t)
	nonce := make([]byte, NonceSize)
	ct := a.Seal(nil, nonce, []byte("attack at dawn"), []byte("hdr"))
	for bit := 0; bit < len(ct)*8; bit += 7 {
		mutated := bytes.Clone(ct)
		mutated[bit/8] ^= 1 << (bit % 8)
		if _, err := a.Open(nil, nonce, mutated, []byte("hdr")); err == nil {
			t.Fatalf("flipping bit %d went undetected", bit)
		}
	}
}

func TestWrongADRejected(t *testing.T) {
	a := mustAEAD(t)
	nonce := make([]byte, NonceSize)
	ct := a.Seal(nil, nonce, []byte("payload"), []byte("ad-1"))
	if _, err := a.Open(nil, nonce, ct, []byte("ad-2")); err == nil {
		t.Fatal("wrong associated data accepted")
	}
}

func TestWrongNonceRejected(t *testing.T) {
	a := mustAEAD(t)
	n1 := make([]byte, NonceSize)
	n2 := make([]byte, NonceSize)
	n2[11] = 1
	ct := a.Seal(nil, n1, []byte("payload"), nil)
	if _, err := a.Open(nil, n2, ct, nil); err == nil {
		t.Fatal("wrong nonce accepted")
	}
}

func TestShortCiphertextRejected(t *testing.T) {
	a := mustAEAD(t)
	if _, err := a.Open(nil, make([]byte, NonceSize), make([]byte, TagSize-1), nil); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

func TestSealAppendsToDst(t *testing.T) {
	a := mustAEAD(t)
	nonce := make([]byte, NonceSize)
	prefix := []byte("prefix")
	out := a.Seal(bytes.Clone(prefix), nonce, []byte("body"), nil)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Seal did not preserve dst prefix")
	}
	pt, err := a.Open(nil, nonce, out[len(prefix):], nil)
	if err != nil || string(pt) != "body" {
		t.Fatalf("round trip through dst prefix failed: %v %q", err, pt)
	}
}

func TestRoundTripProperty(t *testing.T) {
	a := mustAEAD(t)
	f := func(pt, ad []byte, nonceSeed uint64) bool {
		nonce := make([]byte, NonceSize)
		for i := 0; i < 8; i++ {
			nonce[4+i] = byte(nonceSeed >> (8 * i))
		}
		ct := a.Seal(nil, nonce, pt, ad)
		if len(ct) != len(pt)+TagSize {
			return false
		}
		back, err := a.Open(nil, nonce, ct, ad)
		return err == nil && bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctNoncesDistinctCiphertexts(t *testing.T) {
	a := mustAEAD(t)
	pt := []byte("identical plaintext, 32 bytes!!!")
	seen := make(map[string]bool)
	nonce := make([]byte, NonceSize)
	for i := 0; i < 64; i++ {
		nonce[11] = byte(i)
		ct := string(a.Seal(nil, nonce, pt, nil))
		if seen[ct] {
			t.Fatal("two nonces produced identical ciphertext")
		}
		seen[ct] = true
	}
}

func TestBlockSizeValidation(t *testing.T) {
	if _, err := New(fakeBlock{}); err == nil {
		t.Fatal("accepted non-128-bit block cipher")
	}
}

type fakeBlock struct{}

func (fakeBlock) BlockSize() int          { return 8 }
func (fakeBlock) Encrypt(dst, src []byte) {}
func (fakeBlock) Decrypt(dst, src []byte) {}

// refSeal is OCB3 as RFC 7253 §4 writes it, a byte at a time and caching
// nothing: the reference the word-wide implementation is held to.
func refSeal(block cipher.Block, nonce, pt, ad []byte) []byte {
	enc := func(in []byte) []byte {
		out := make([]byte, blockSize)
		block.Encrypt(out, in)
		return out
	}
	xor := func(a, b []byte) []byte {
		out := make([]byte, blockSize)
		for i := range out {
			out[i] = a[i] ^ b[i]
		}
		return out
	}
	double := func(s []byte) []byte {
		out := make([]byte, blockSize)
		for i := 0; i < blockSize-1; i++ {
			out[i] = s[i]<<1 | s[i+1]>>7
		}
		out[blockSize-1] = s[blockSize-1]<<1 ^ (s[0]>>7)*0x87
		return out
	}
	lstar := enc(make([]byte, blockSize))
	ldollar := double(lstar)
	l := func(i int) []byte { // L_ntz(i)
		li := double(ldollar)
		for ; i%2 == 0; i /= 2 {
			li = double(li)
		}
		return li
	}
	pad := func(b []byte) []byte {
		out := make([]byte, blockSize)
		copy(out, b)
		out[len(b)] = 0x80
		return out
	}

	n := make([]byte, blockSize)
	n[blockSize-1-len(nonce)] = 1
	copy(n[blockSize-len(nonce):], nonce)
	bottom := int(n[blockSize-1] & 0x3F)
	n[blockSize-1] &= 0xC0
	ktop := enc(n)
	stretch := append(ktop, make([]byte, 8)...)
	for i := 0; i < 8; i++ {
		stretch[blockSize+i] = ktop[i] ^ ktop[i+1]
	}
	offset := make([]byte, blockSize)
	for i := 0; i < 128; i++ { // bit i of Offset_0 is bit bottom+i of Stretch
		j := bottom + i
		offset[i/8] |= (stretch[j/8] >> (7 - j%8) & 1) << (7 - i%8)
	}

	var out []byte
	checksum := make([]byte, blockSize)
	i := 1
	for ; len(pt) >= blockSize; i++ {
		offset = xor(offset, l(i))
		out = append(out, xor(offset, enc(xor(pt[:blockSize], offset)))...)
		checksum = xor(checksum, pt[:blockSize])
		pt = pt[blockSize:]
	}
	if len(pt) > 0 {
		offset = xor(offset, lstar)
		out = append(out, xor(pad(pt), enc(offset))[:len(pt)]...)
		checksum = xor(checksum, pad(pt))
	}
	tag := enc(xor(xor(checksum, offset), ldollar))

	sum, aoff := make([]byte, blockSize), make([]byte, blockSize)
	for i = 1; len(ad) >= blockSize; i++ {
		aoff = xor(aoff, l(i))
		sum = xor(sum, enc(xor(ad[:blockSize], aoff)))
		ad = ad[blockSize:]
	}
	if len(ad) > 0 {
		aoff = xor(aoff, lstar)
		sum = xor(sum, enc(xor(pad(ad), aoff)))
	}
	return append(out, xor(tag, sum)...)
}

// sspNonce is the nonce SSP derives from a datagram's header, direction bit
// and sequence number.
func sspNonce(header uint64) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 4), header)
}

func aesBlock(t testing.TB, key byte) cipher.Block {
	t.Helper()
	block, err := aes.NewCipher(bytes.Repeat([]byte{key}, 16))
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// TestSealMatchesReference: every plaintext length 0–64 plus 1199–1201 and
// 2400 (a fragment either side of the MTU and two), under every
// associated-data length 0–40, seals to the reference's bytes and opens
// back. The nonces are rising sequence numbers in both directions, so their
// low 6 bits take every value the stretch shift handles, and every buffer
// is a misaligned sub-slice of a larger one.
func TestSealMatchesReference(t *testing.T) {
	key, _ := hex.DecodeString("000102030405060708090A0B0C0D0E0F")
	rfcBlock, _ := aes.NewCipher(key)
	for i, v := range rfcVectors {
		if got := refSeal(rfcBlock, unhex(t, v.nonce), unhex(t, v.pt), unhex(t, v.ad)); !bytes.Equal(got, unhex(t, v.ct)) {
			t.Fatalf("the reference fails RFC 7253 vector %d: %X", i, got)
		}
	}
	block := aesBlock(t, 7)
	a, _ := New(block)
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 2400+64)
	rng.Read(src)
	var lengths []int
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1199, 1200, 1201, 2400)
	seq := uint64(0)
	for _, ptLen := range lengths {
		for adLen := 0; adLen <= 40; adLen++ {
			seq += 1 + uint64(rng.Intn(3))
			nonce := sspNonce(seq | uint64(adLen%2)<<63)
			off := 1 + int(seq%7)
			pt, ad := src[off:off+ptLen], src[2400+off%3:][:adLen]
			want := refSeal(block, nonce, pt, ad)
			dst := make([]byte, off, off+ptLen+TagSize)
			got := a.Seal(dst, nonce, pt, ad)[off:]
			if !bytes.Equal(got, want) {
				t.Fatalf("pt %d B, ad %d B: Seal = %x, reference %x", ptLen, adLen, got, want)
			}
			back, err := a.Open(make([]byte, off+1)[off+1:], nonce, got, ad)
			if err != nil || !bytes.Equal(back, pt) {
				t.Fatalf("pt %d B, ad %d B: Open = %v", ptLen, adLen, err)
			}
		}
	}
}

// TestSealOpenInPlace: Seal with dst = plaintext[:0] and Open with
// dst = ciphertext[:0] give the same bytes as separate buffers.
func TestSealOpenInPlace(t *testing.T) {
	block := aesBlock(t, 7)
	a, _ := New(block)
	rng := rand.New(rand.NewSource(2))
	ad := []byte("sequence")
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 1200, 1201} {
		pt := make([]byte, n)
		rng.Read(pt)
		nonce := sspNonce(uint64(n))
		want := refSeal(block, nonce, pt, ad)
		buf := make([]byte, n, n+TagSize)
		copy(buf, pt)
		ct := a.Seal(buf[:0], nonce, buf, ad)
		if !bytes.Equal(ct, want) {
			t.Fatalf("%d B: in-place Seal = %x, want %x", n, ct, want)
		}
		back, err := a.Open(ct[:0], nonce, ct, ad)
		if err != nil || !bytes.Equal(back, pt) {
			t.Fatalf("%d B: in-place Open = %x, %v", n, back, err)
		}
	}
}

// TestFlippedBitRejectedAndWiped: flipping any one bit of the ciphertext,
// tag or associated data fails Open, and the plaintext it had written into
// dst is zeroed.
func TestFlippedBitRejectedAndWiped(t *testing.T) {
	a := mustAEAD(t)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 5, 16, 40, 1200} {
		pt, ad := make([]byte, n), make([]byte, 13)
		rng.Read(pt)
		rng.Read(ad)
		nonce := sspNonce(uint64(100 + n))
		ct := a.Seal(nil, nonce, pt, ad)
		dst := make([]byte, n)
		check := func(what string, bit int, ct, ad []byte) {
			t.Helper()
			for i := range dst {
				dst[i] = 0xA5
			}
			if got, err := a.Open(dst[:0], nonce, ct, ad); err != ErrOpen || got != nil {
				t.Fatalf("%d B: flipping %s bit %d: Open = %v, %v", n, what, bit, got != nil, err)
			}
			if !bytes.Equal(dst, make([]byte, n)) {
				t.Fatalf("%d B: flipping %s bit %d left plaintext in dst", n, what, bit)
			}
		}
		for bit := 0; bit < len(ct)*8; bit++ {
			mutated := bytes.Clone(ct)
			mutated[bit/8] ^= 1 << (bit % 8)
			check("ciphertext", bit, mutated, ad)
		}
		for bit := 0; bit < len(ad)*8; bit++ {
			mutated := bytes.Clone(ad)
			mutated[bit/8] ^= 1 << (bit % 8)
			check("associated-data", bit, ct, mutated)
		}
	}
}

func BenchmarkSeal1K(b *testing.B) {
	a := mustAEAD(b)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 1024)
	dst := make([]byte, 0, len(pt)+TagSize)
	b.SetBytes(int64(len(pt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Seal(dst[:0], nonce, pt, nil)
	}
}

func BenchmarkOpen1K(b *testing.B) {
	a := mustAEAD(b)
	nonce := make([]byte, NonceSize)
	ct := a.Seal(nil, nonce, make([]byte, 1024), nil)
	dst := make([]byte, 0, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Open(dst[:0], nonce, ct, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The MTU benchmarks seal and open a full fragment as sspcrypto does: a
// sequence-number nonce, the header as associated data.

const mtu = 1200

func BenchmarkSeal1200(b *testing.B) {
	a := mustAEAD(b)
	pt := make([]byte, mtu)
	dst := make([]byte, 0, mtu+TagSize)
	nonce := make([]byte, NonceSize)
	b.SetBytes(mtu)
	for seq := uint64(0); b.Loop(); seq++ {
		binary.BigEndian.PutUint64(nonce[4:], seq)
		dst = a.Seal(dst[:0], nonce, pt, nonce[4:])
	}
}

func BenchmarkOpen1200(b *testing.B) {
	a := mustAEAD(b)
	const n = 4096
	cts := make([][]byte, n)
	for seq := range cts {
		nonce := sspNonce(uint64(seq))
		cts[seq] = a.Seal(nil, nonce, make([]byte, mtu), nonce[4:])
	}
	dst := make([]byte, 0, mtu)
	nonce := make([]byte, NonceSize)
	b.SetBytes(mtu)
	for seq := 0; b.Loop(); seq = (seq + 1) % n {
		binary.BigEndian.PutUint64(nonce[4:], uint64(seq))
		var err error
		if dst, err = a.Open(dst[:0], nonce, cts[seq], nonce[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
