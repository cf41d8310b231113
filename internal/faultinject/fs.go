package faultinject

import (
	"os"
	"sync"
	"sync/atomic"
)

// File is the subset of *os.File the journal writer touches.
type File interface {
	Write(p []byte) (n int, err error)
	Sync() error
	Close() error
}

// FS is the filesystem seam internal/journal reads and writes
// through. Production uses OSFS; fault tests substitute a FaultFS so
// every operation of the atomic-rename protocol can fail on schedule.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the entry names in a directory (the journal uses it
	// to discover log segments at boot and compaction).
	ReadDir(dir string) ([]string, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a completed rename is durable
	// (best effort — not every filesystem supports it).
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                     { return os.Remove(name) }
func (OSFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// Op names one filesystem operation for OpHook scripting.
type Op string

const (
	OpOpen    Op = "open"
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpClose   Op = "close"
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpRead    Op = "read"
	OpReadDir Op = "readdir"
	OpMkdir   Op = "mkdir"
	OpSyncDir Op = "syncdir"
)

// FSFaults parameterizes the probabilistic filesystem fault schedule.
// All probabilities are per operation; zero values inject nothing.
type FSFaults struct {
	// WriteErrProb fails a Write with EIO or ENOSPC (alternating).
	WriteErrProb float64
	// ShortWriteProb makes a Write persist only a strict prefix and
	// return ENOSPC — the mid-write disk-full case.
	ShortWriteProb float64
	// SyncErrProb fails an fsync with EIO (data may or may not be down).
	SyncErrProb float64
	// RenameErrProb fails a rename with EIO; the old snapshot survives.
	RenameErrProb float64
	// TornRenameProb makes a rename "succeed" but leave only a prefix of
	// the source at the destination — the power-cut-mid-rename model the
	// journal decoder must tolerate.
	TornRenameProb float64
	// ReadErrProb fails a ReadFile with EIO.
	ReadErrProb float64
	// FailAll, when non-nil, fails every mutating operation with this
	// error — the disk-gone / read-only-remount model used to drive the
	// journal into its suspended state.
	FailAll error
}

// FaultFS wraps an FS and injects faults per schedule. The zero
// schedule is transparent. An OpHook, when set, observes every
// operation before any probabilistic fault and may inject its own
// error — tests use it to script exact failures and to record attempt
// times for backoff assertions.
type FaultFS struct {
	inner FS
	rng   *Rand

	mu     sync.Mutex
	faults FSFaults
	hook   func(op Op, path string) error
	// written accumulates bytes written per open path so a torn rename
	// can materialize a truncated prefix of the source at the
	// destination. Only journal-sized staging files flow through here.
	written map[string][]byte

	// writeErrs counts failed writes; a probabilistic write fault is
	// ENOSPC on an even count and EIO on an odd one.
	writeErrs atomic.Int64
}

// NewFaultFS wraps inner (nil means OSFS) with a fault injector driven
// by the given seed.
func NewFaultFS(inner FS, seed int64) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{inner: inner, rng: NewRand(seed), written: make(map[string][]byte)}
}

// SetFaults replaces the probabilistic fault schedule (zero disables).
func (f *FaultFS) SetFaults(fl FSFaults) {
	f.mu.Lock()
	f.faults = fl
	f.mu.Unlock()
}

// Faults returns the current schedule.
func (f *FaultFS) Faults() FSFaults {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// SetOpHook installs (or clears) the per-operation hook.
func (f *FaultFS) SetOpHook(hook func(op Op, path string) error) {
	f.mu.Lock()
	f.hook = hook
	f.mu.Unlock()
}

// enter runs the hook and the FailAll gate for one operation.
func (f *FaultFS) enter(op Op, path string, mutating bool) error {
	f.mu.Lock()
	hook := f.hook
	failAll := f.faults.FailAll
	f.mu.Unlock()
	if hook != nil {
		if err := hook(op, path); err != nil {
			return err
		}
	}
	if mutating && failAll != nil {
		return failAll
	}
	return nil
}

func (f *FaultFS) chance(p float64) bool { return f.rng.Chance(p) }

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := f.enter(OpOpen, name, flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE) != 0); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_TRUNC != 0 {
		f.mu.Lock()
		delete(f.written, name)
		f.mu.Unlock()
	}
	return &faultFile{fs: f, f: inner, path: name}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.enter(OpRename, newpath, true); err != nil {
		return err
	}
	f.mu.Lock()
	torn := f.faults.TornRenameProb
	renameErr := f.faults.RenameErrProb
	content := f.written[oldpath]
	f.mu.Unlock()
	if f.chance(renameErr) {
		return ErrEIO
	}
	if len(content) > 1 && f.chance(torn) {
		// Power-cut model: the destination ends up holding only a prefix
		// of the source, and the source is gone. The caller sees success;
		// only a later reader discovers the tear.
		prefix := content[:1+f.rng.Intn(len(content)-1)]
		if err := f.writeRaw(newpath, prefix); err != nil {
			return err
		}
		f.inner.Remove(oldpath)
		f.forget(oldpath)
		return nil
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if c, ok := f.written[oldpath]; ok {
		f.written[newpath] = c
		delete(f.written, oldpath)
	}
	f.mu.Unlock()
	return nil
}

// writeRaw bypasses fault injection to materialize a torn destination.
func (f *FaultFS) writeRaw(path string, data []byte) error {
	g, err := f.inner.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, werr := g.Write(data)
	cerr := g.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func (f *FaultFS) forget(path string) {
	f.mu.Lock()
	delete(f.written, path)
	f.mu.Unlock()
}

func (f *FaultFS) Remove(name string) error {
	if err := f.enter(OpRemove, name, true); err != nil {
		return err
	}
	f.forget(name)
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.enter(OpRead, name, false); err != nil {
		return nil, err
	}
	if f.chance(f.Faults().ReadErrProb) {
		return nil, ErrEIO
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.enter(OpReadDir, dir, false); err != nil {
		return nil, err
	}
	if f.chance(f.Faults().ReadErrProb) {
		return nil, ErrEIO
	}
	return f.inner.ReadDir(dir)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.enter(OpMkdir, path, true); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.enter(OpSyncDir, dir, false); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile injects write/sync/close faults and records written bytes so
// a torn rename can truncate them.
type faultFile struct {
	fs   *FaultFS
	f    File
	path string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	if err := fs.enter(OpWrite, ff.path, true); err != nil {
		fs.writeErrs.Add(1)
		return 0, err
	}
	fl := fs.Faults()
	if fs.chance(fl.WriteErrProb) {
		fs.writeErrs.Add(1)
		if fs.writeErrs.Load()%2 == 0 {
			return 0, ErrENOSPC
		}
		return 0, ErrEIO
	}
	if len(p) > 1 && fs.chance(fl.ShortWriteProb) {
		// Disk fills mid-write: a prefix lands, the caller gets ENOSPC.
		k := 1 + fs.rng.Intn(len(p)-1)
		n, err := ff.f.Write(p[:k])
		if err == nil {
			fs.record(ff.path, p[:n])
			err = ErrENOSPC
		}
		return n, err
	}
	n, err := ff.f.Write(p)
	if n > 0 {
		fs.record(ff.path, p[:n])
	}
	return n, err
}

func (fs *FaultFS) record(path string, p []byte) {
	fs.mu.Lock()
	fs.written[path] = append(fs.written[path], p...)
	fs.mu.Unlock()
}

func (ff *faultFile) Sync() error {
	fs := ff.fs
	if err := fs.enter(OpSync, ff.path, true); err != nil {
		return err
	}
	if fs.chance(fs.Faults().SyncErrProb) {
		return ErrEIO
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	if err := ff.fs.enter(OpClose, ff.path, false); err != nil {
		return err
	}
	return ff.f.Close()
}
