package timelint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// checkedRoots are the trees whose non-test functions must be reached.
// benchmark/ is an importer root too, so its files count as callers, but
// its own functions are never checked.
var checkedRoots = []string{"cmd", "examples", "internal"}

// unreached maps a non-test function that no non-test file references to
// the reason it may stay, keyed "dir.Func" or "dir.Type.Method" with dir
// the package's directory relative to the module root. Every entry needs
// a justification; a function only a test calls belongs in that test's
// package, not here.
var unreached = map[string]string{
	"internal/simclock.Scheduler.Drain":             "netem's tests run a Scheduler's queued deliveries to quiescence through it",
	"internal/simclock.Scheduler.WaiterCount":       "sessiond's loop tests observe how many real sleeps a served loop has armed",
	"internal/simclock.Scheduler.BlockUntilWaiters": "sessiond's loop tests wait for a served loop to arm its real sleep before advancing the clock",
	"internal/faultinject.FaultFS.SetOpHook":        "journal and sessiond crash-point tests fail a write at an exact filesystem operation through it",
	"internal/udpbatch.ProbeProviders":              "CI's capability-probe step prints which socket rungs the runner's kernel offers",
	"internal/sessiond.Daemon.Lookup":               "sessiond's external tests reach a live or restored session by ID through it",
	"internal/sessiond.Daemon.FlightRecorder":       "sessiond's external tests read the daemon's flight recorder through it",
	"internal/core.Client.Resize":                   "protocol surface: a client announces a window resize; mosh-client does not forward SIGWINCH yet",
	"internal/network.Connection.SetRemoteAddr":     "transport, core and sessiond tests give a server its peer without a client handshake",
}

// TestEveryFuncReached fails on any function or method declared in a
// non-test file under cmd/, examples/ or internal/ that no non-test file
// references: code that only tests reach belongs in a _test.go file, or
// nowhere. It type-checks the module for the host's GOOS/GOARCH. A use
// inside the function's own body does not count. A method also counts as
// reached when an interface type the program uses has a method of its
// name, since a call through the interface reaches it without naming it.
// main and init are entry points. CI runs this by name beside
// TestNoNakedTime.
func TestEveryFuncReached(t *testing.T) {
	root, prog := program(t)

	used := make(map[*types.Func]bool)
	ifaceMethods := make(map[string]bool)
	seen := make(map[types.Type]bool)
	for _, p := range prog {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d := p.declOf[fn]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue // recursion is not a caller
			}
			used[fn] = true
		}
		for _, tv := range p.info.Types {
			collectIfaceMethods(tv.Type, ifaceMethods, seen)
		}
	}

	var orphans []string
	excused := make(map[string]bool) // allowlist entries still needed
	for _, p := range prog {
		if !p.checked {
			continue
		}
		for fn := range p.declOf {
			method := fn.Type().(*types.Signature).Recv() != nil
			if used[fn] || method && ifaceMethods[fn.Name()] || !method && (fn.Name() == "main" || fn.Name() == "init") {
				continue
			}
			key := funcKey(p.dir, fn)
			if reason, ok := unreached[key]; ok {
				t.Logf("allowlisted: %s (%s)", key, reason)
				excused[key] = true
				continue
			}
			pos := p.fset.Position(fn.Pos())
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			orphans = append(orphans, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, key))
		}
	}
	for key := range unreached {
		if !excused[key] {
			t.Errorf("allowlist entry %s is stale: the function is gone or now reached", key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("functions no production file references (delete them, move them into a _test.go file, or allowlist with a reason):\n  %s",
			strings.Join(orphans, "\n  "))
	}
}

// funcKey names fn as the allowlist does: "dir.Func" or "dir.Type.Method".
func funcKey(dir string, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return dir + "." + fn.Name()
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return dir + "." + named.Obj().Name() + "." + fn.Name()
	}
	return dir + "." + rt.String() + "." + fn.Name()
}

// collectIfaceMethods records the method names of every interface type
// reachable from typ through its structure: signatures, composite element
// types, struct fields and named types' underlying types. That covers an
// interface a standard library function takes (sort.Interface through
// sort.Sort) as well as one the program declares.
func collectIfaceMethods(typ types.Type, names map[string]bool, seen map[types.Type]bool) {
	if typ == nil || seen[typ] {
		return
	}
	seen[typ] = true
	switch t := typ.(type) {
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			names[t.Method(i).Name()] = true
		}
	case *types.Named:
		collectIfaceMethods(t.Underlying(), names, seen)
	case *types.Alias:
		collectIfaceMethods(types.Unalias(t), names, seen)
	case *types.Pointer:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Slice:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Array:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Chan:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Map:
		collectIfaceMethods(t.Key(), names, seen)
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			collectIfaceMethods(t.Field(i).Type(), names, seen)
		}
	case *types.Signature:
		collectIfaceMethods(t.Params(), names, seen)
		collectIfaceMethods(t.Results(), names, seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			collectIfaceMethods(t.At(i).Type(), names, seen)
		}
	}
}

// progPkg is one type-checked package of the module.
type progPkg struct {
	dir     string // relative to the module root
	path    string // import path
	checked bool   // its functions must be reached
	fset    *token.FileSet
	files   []*ast.File
	imports []string
	pkg     *types.Package
	info    *types.Info
	declOf  map[*types.Func]*ast.FuncDecl // every function its files declare
}

var (
	progOnce sync.Once
	progRoot string
	progPkgs []*progPkg
	progErr  error
)

// program returns the module root and its type-checked packages, loading
// them once for every test in the package that needs them.
func program(t *testing.T) (string, []*progPkg) {
	t.Helper()
	progOnce.Do(func() {
		var mod string
		if progRoot, progErr = repoRoot(); progErr != nil {
			return
		}
		if mod, progErr = modulePath(progRoot); progErr != nil {
			return
		}
		progPkgs, progErr = loadProgram(progRoot, mod)
	})
	if progErr != nil {
		t.Fatal(progErr)
	}
	return progRoot, progPkgs
}

// loadProgram parses the non-test files of every package under the
// importer roots for the host's GOOS/GOARCH and type-checks them in
// dependency order. Module packages are checked once and shared, so a use
// in one package resolves to the object another declares; the standard
// library comes from source.
func loadProgram(root, mod string) ([]*progPkg, error) {
	fset := token.NewFileSet()
	byPath := make(map[string]*progPkg)
	var all []*progPkg
	for _, top := range importerRoots {
		checked := slices.Contains(checkedRoots, top)
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, e fs.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.Default.ImportDir(path, 0)
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			p := &progPkg{
				dir:     filepath.ToSlash(rel),
				path:    mod + "/" + filepath.ToSlash(rel),
				checked: checked,
				fset:    fset,
				imports: bp.Imports,
				declOf:  make(map[*types.Func]*ast.FuncDecl),
			}
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				p.files = append(p.files, f)
			}
			byPath[p.path] = p
			all = append(all, p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	std := importer.ForCompiler(fset, "source", nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			if p.pkg == nil {
				return nil, fmt.Errorf("import cycle or unchecked package %s", path)
			}
			return p.pkg, nil
		}
		return std.Import(path)
	})
	var check func(p *progPkg) error
	visiting := make(map[*progPkg]bool)
	check = func(p *progPkg) error {
		if p.pkg != nil || visiting[p] {
			return nil
		}
		visiting[p] = true
		for _, path := range p.imports {
			if dep, ok := byPath[path]; ok {
				if err := check(dep); err != nil {
					return err
				}
			}
		}
		p.info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return fmt.Errorf("type-check %s: %w", p.dir, err)
		}
		p.pkg = pkg
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						p.declOf[fn] = fd
					}
				}
			}
		}
		return nil
	}
	for _, p := range all {
		if err := check(p); err != nil {
			return nil, err
		}
	}
	return all, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
