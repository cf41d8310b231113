package faultinject

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := r.Intn(17); n < 0 || n >= 17 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
	if r.Chance(0) {
		t.Fatal("Chance(0) fired")
	}
	if !r.Chance(1) {
		t.Fatal("Chance(1) did not fire")
	}
}

func TestFaultFSShortWriteAndSync(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 3)
	ffs.SetFaults(FSFaults{ShortWriteProb: 1})
	path := filepath.Join(dir, "f")
	f, err := ffs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 100)
	n, err := f.Write(data)
	if !errors.Is(err, syscall.ENOSPC) || n <= 0 || n >= len(data) {
		t.Fatalf("short write = %d, %v; want strict prefix + ENOSPC", n, err)
	}
	f.Close()
	if got, _ := os.ReadFile(path); len(got) != n {
		t.Fatalf("on-disk prefix %d bytes, reported %d", len(got), n)
	}
	ffs.SetFaults(FSFaults{SyncErrProb: 1})
	f, err = ffs.OpenFile(path, os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync fault = %v, want EIO", err)
	}
	f.Close()
}

func TestFaultFSTornRename(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 11)
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	content := bytes.Repeat([]byte("journal"), 50)
	f, err := ffs.OpenFile(src, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ffs.SetFaults(FSFaults{TornRenameProb: 1})
	if err := ffs.Rename(src, dst); err != nil {
		t.Fatalf("torn rename reported failure: %v", err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(content) || !bytes.Equal(got, content[:len(got)]) {
		t.Fatalf("destination is not a strict prefix: %d vs %d bytes", len(got), len(content))
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Fatalf("source survived the torn rename: %v", err)
	}
}

func TestFaultFSFailAllAndHook(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 5)
	ffs.SetFaults(FSFaults{FailAll: ErrEACCES})
	if _, err := ffs.OpenFile(filepath.Join(dir, "f"), os.O_WRONLY|os.O_CREATE, 0o600); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("FailAll open = %v, want EACCES", err)
	}
	if err := ffs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("FailAll rename = %v, want EACCES", err)
	}
	// Reads are not gated by FailAll (the journal must stay loadable).
	if _, err := ffs.ReadFile(filepath.Join(dir, "nope")); !os.IsNotExist(err) {
		t.Fatalf("read under FailAll = %v, want not-exist", err)
	}
	ffs.SetFaults(FSFaults{})
	var ops []Op
	ffs.SetOpHook(func(op Op, path string) error {
		ops = append(ops, op)
		if op == OpSync {
			return ErrEIO
		}
		return nil
	})
	f, err := ffs.OpenFile(filepath.Join(dir, "g"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("x"))
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("hooked sync = %v, want EIO", err)
	}
	f.Close()
	want := []Op{OpOpen, OpWrite, OpSync, OpClose}
	if len(ops) != len(want) {
		t.Fatalf("hook saw %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("hook saw %v, want %v", ops, want)
		}
	}
}
