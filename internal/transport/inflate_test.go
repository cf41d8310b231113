package transport

import (
	"bytes"
	"compress/zlib"
	"io"
	"testing"

	"repro/internal/host"
	"repro/internal/statesync"
)

// zlibInflate is the reference decoder: compress/zlib read through a
// limit one byte past maxDecompressed, as the receive path decoded before
// it had its own inflater.
func zlibInflate(z []byte) ([]byte, error) {
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(io.LimitReader(zr, maxDecompressed+1))
	if err != nil {
		return nil, err
	}
	if len(out) > maxDecompressed {
		return nil, errOverLimit
	}
	return out, nil
}

// trainsFrame is the zlib stream of a real bulk-output reply: a 162x64
// screen of host.BulkStream output diffed against the screen before the
// keystroke that released it, as the benchmark's trains workload sends it.
func trainsFrame(tb testing.TB) []byte {
	const cols, rows = 162, 64
	app := host.NewBulkStream(1, 0)
	prev := statesync.NewComplete(cols, rows)
	prev.Terminal().Write(app.Start())
	cur := prev.Clone()
	burst, _ := app.Input([]byte("k"))
	cur.Terminal().Write(burst)
	enc := encodeInstruction(&Instruction{OldNum: 1, NewNum: 2, AckNum: 1, ThrowawayNum: 1, Diff: cur.DiffFrom(prev)})
	if enc[0] != encodingZlib {
		tb.Fatal("a trains frame was sent uncompressed")
	}
	return enc[1:]
}

// FuzzInflate holds the receive path's inflater to compress/zlib: on every
// input the same verdict, on every accepted one the same bytes, and never a
// byte past maxDecompressed. The committed corpus has a stored, a fixed and
// a dynamic block, a real trains frame, and one stream for each way a
// stream is refused: truncated mid-symbol, a wrong Adler-32, a preset
// dictionary, CINFO > 7, an over-subscribed and an incomplete code-length
// code, a distance before the start of the output, literal/length symbols
// 286 and 287, distance codes 30 and 31, and a stored block whose NLEN is
// not the complement of its LEN.
func FuzzInflate(f *testing.F) {
	f.Fuzz(func(t *testing.T, z []byte) {
		got, err := inflate([]byte("stale"), z)
		want, werr := zlibInflate(z)
		if len(got) > maxDecompressed {
			t.Fatalf("inflated %d bytes, past the limit", len(got))
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("inflate: %v; compress/zlib: %v", err, werr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("inflate gave %d bytes, compress/zlib %d, and they differ", len(got), len(want))
		}
	})
}

// TestInflateAllocFree: inflating into a warm dst allocates nothing; the
// decoder's state lives on its stack.
func TestInflateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("CI runs the allocation guards without -race")
	}
	z := trainsFrame(t)
	dst, err := inflate(nil, z)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { dst, _ = inflate(dst, z) }); allocs != 0 {
		t.Fatalf("inflate into a warm dst = %.1f allocs per frame, want 0", allocs)
	}
}

// BenchmarkInflateTrainsFrame decodes one trains frame with the receive
// path's inflater and, beside it, with compress/zlib.
func BenchmarkInflateTrainsFrame(b *testing.B) {
	z := trainsFrame(b)
	raw, err := inflate(nil, z)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inflate", func(b *testing.B) {
		dst := make([]byte, 0, len(raw))
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			if dst, err = inflate(dst, z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compress-zlib", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			if _, err := zlibInflate(z); err != nil {
				b.Fatal(err)
			}
		}
	})
}
