package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManySessionGolden pins every many-session load the tree runs at
// seed 1: its report without the wall-clock sim line, and an FNV-64
// digest over every session's frame-stream hash and converged screen.
// Virtual time makes all of it exact, so a refactor of the driver must
// leave the file untouched; a deliberate behavior change regenerates it
// with `go test ./internal/bench/ -run TestManySessionGolden -update`.
func TestManySessionGolden(t *testing.T) {
	sessions := map[string]int{"trains": 30, "virtual": 200}
	var b strings.Builder
	for _, l := range Loads {
		opt := l.Options
		opt.Sessions = 60
		if n, ok := sessions[l.Name]; ok {
			opt.Sessions = n
		}
		opt.Seed = 1
		opt.captureFrames = true
		res := RunManySession(opt)
		if l.Check != nil {
			if err := l.Check(res); err != nil {
				t.Errorf("%s: %v", l.Name, err)
			}
		}
		report := FormatManySession(res)
		report = report[:strings.LastIndex(report, "\n  sim: ")]
		fmt.Fprintf(&b, "== %s\n%s\nframes %016x\n", l.Name, report, frameDigest(res))
	}

	path := filepath.Join("testdata", "manysession.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("many-session runs moved from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// frameDigest hashes a run's per-session frame-stream hashes and final
// screens, in session order.
func frameDigest(res ManySessionResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, fh := range res.FrameHashes {
		binary.BigEndian.PutUint64(buf[:], fh)
		h.Write(buf[:])
	}
	for _, f := range res.FinalFrames {
		binary.BigEndian.PutUint64(buf[:], uint64(len(f)))
		h.Write(buf[:])
		h.Write(f)
	}
	return h.Sum64()
}
