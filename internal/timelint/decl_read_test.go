package timelint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unread maps a non-test declaration that no non-test file reads to the
// reason it may stay, keyed "dir.Name" for a package-level type, const or
// var and "dir.Type.field" for a struct field, with dir the package's
// directory relative to the module root. Every entry needs a
// justification; a value only a test reads belongs in that test, not in
// production code.
var unread = map[string]string{
	"internal/faultinject.ErrEINTR":        errnoSeam,
	"internal/faultinject.ErrENOBUFS":      errnoSeam,
	"internal/faultinject.ErrENOMEM":       errnoSeam,
	"internal/faultinject.ErrEACCES":       errnoSeam,
	"internal/faultinject.ErrETIMEDOUT":    errnoSeam,
	"internal/faultinject.ErrECONNREFUSED": errnoSeam,

	"internal/tcpsim.Conn.stats":            "holds the counters below, which tcpsim's tests read",
	"internal/tcpsim.Stats.SegmentsSent":    "TestLargeTransferSegmentsAndReassembles checks that 100 kB leaves as MSS-sized segments",
	"internal/tcpsim.Stats.Retransmissions": "TestRecoversFromLoss checks that loss is repaired by retransmission",
	"internal/tcpsim.Stats.Timeouts":        "TestExponentialBackoff counts the RTO firings of a blackholed flow; TestFastRetransmit checks that none fire",
	"internal/tcpsim.Stats.FastRetransmits": "TestFastRetransmit checks that a single loss is repaired by three duplicate acks",
	"internal/netem.LinkStats.Sent":         "TestLinkFaultDuplicate and sshsim's TestBulkFlowSaturatesSharedLink count the packets a link accepted",
	"internal/netem.LinkStats.Delivered":    "TestDetachedNodeDrops, TestLossRate and TestLinkFaultDuplicate count a link's deliveries",
	"internal/netem.LinkStats.DroppedQueue": "TestDropTailQueue checks the drop-tail overflow count",
	"internal/trace.Step.Kind":              "trace's tests check the generated workload's typing and navigation mix (TestTypingStepsEcho, TestNavigationStepsRepaint, TestProfilesDiffer)",
	"internal/overlay.Stats.EpochsKilled":   "TestWrongTentativePredictionKillsEpochQuietly tells a quiet epoch kill from a full reset, which clears the same predictions",
	"internal/bench.FloodResult.Sender":     "TestFloodDiscardsOnePreparedFrame compares the flood's sender counters with and without building ahead",
	"internal/bench.StageStat.N":            "TestManySessionRestartRoamLoss checks that the echo stage counts as many matches as the cohorts",
	"internal/terminal.KeyNone":             "the zero SpecialKey, which EncodeSpecial encodes to nothing (TestKeyEncoding)",
	"internal/udpbatch.ProbeResult.Name":    probeStep,
	"internal/udpbatch.ProbeResult.OK":      probeStep,
	"internal/udpbatch.ProbeResult.Err":     probeStep,
	"internal/udpbatch.mmsghdr.hdr":         kernelABI,
	"internal/udpbatch.rawInet4.family":     kernelABI,
	"internal/udpbatch.rawInet4.zero":       kernelABI,
	"internal/udpbatch.rawInet6.family":     kernelABI,
	"internal/udpbatch.rawInet6.flowinfo":   kernelABI,
}

const (
	errnoSeam = "test seam: faultinject's, journal's and sessiond's tests script these errnos into fakes and match them"
	probeStep = "CI's capability-probe step prints ProbeProviders' results"
	kernelABI = "kernel ABI: the struct mirrors a C struct the kernel reads through an unsafe pointer"
)

// TestEveryDeclRead fails on two kinds of declaration in a non-test file
// under cmd/, examples/ or internal/:
//   - a package-level type, const or var that no non-test file references
//     outside its own declaration;
//   - a struct field that no non-test file reads. Assigning it (=, an
//     op-assign, ++ or --), keying or filling it in a composite literal,
//     and a discarded Add, Store or Set on a sync/atomic or expvar field
//     are writes, not reads.
//
// Blank fields, fields with a struct tag and fields of a struct type that
// is compared with == or != or used as a map key are read by rule.
// benchmark/ files count as readers. CI runs this by name beside
// TestEveryFuncReached.
func TestEveryDeclRead(t *testing.T) {
	root, prog := program(t)
	var orphans []string
	excused := make(map[string]bool) // allowlist entries still needed
	for _, d := range unreadDecls(prog) {
		if reason, ok := unread[d.key]; ok {
			t.Logf("allowlisted: %s (%s)", d.key, reason)
			excused[d.key] = true
			continue
		}
		rel, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		orphans = append(orphans, fmt.Sprintf("%s:%d: %s %s", filepath.ToSlash(rel), d.pos.Line, d.kind, d.key))
	}
	for key := range unread {
		if !excused[key] {
			t.Errorf("allowlist entry %s is stale: the declaration is gone or now read", key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("declarations no production file reads (delete them, move them into a _test.go file, or allowlist with a reason):\n  %s",
			strings.Join(orphans, "\n  "))
	}
}

// unreadDecl is one declaration TestEveryDeclRead reports.
type unreadDecl struct {
	key  string // as the allowlist names it
	kind string // "field", "type", "const" or "var"
	pos  token.Position
}

// unreadDecls returns the package-level names and struct fields declared
// in prog's checked packages that no file of prog reads.
func unreadDecls(prog []*progPkg) []unreadDecl {
	read := make(map[types.Object]bool)
	ruled := make(map[*types.Var]bool) // fields of compared or map-key structs
	for _, p := range prog {
		own := ownSpecs(p)
		writes := fieldWrites(p)
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if !writes[id] {
					read[v.Origin()] = true
				}
				continue
			}
			if spec := own[obj]; spec != nil && spec.Pos() <= id.Pos() && id.Pos() < spec.End() {
				continue // its own declaration is not a reader
			}
			read[obj] = true
		}
		// A selector that reaches a field or method through embedded
		// fields reads each embedded field on the way.
		for _, sel := range p.info.Selections {
			idx := sel.Index()
			typ := sel.Recv()
			for _, i := range idx[:len(idx)-1] {
				st, ok := derefStruct(typ)
				if !ok {
					break
				}
				f := st.Field(i)
				read[f.Origin()] = true
				typ = f.Type()
			}
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markCompared(m.Key(), ruled)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
					markCompared(p.info.TypeOf(b.X), ruled)
					markCompared(p.info.TypeOf(b.Y), ruled)
				}
				return true
			})
		}
	}

	var out []unreadDecl
	for _, p := range prog {
		if !p.checked {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			var kind string
			switch obj.(type) {
			case *types.TypeName:
				kind = "type"
			case *types.Const:
				kind = "const"
			case *types.Var:
				kind = "var"
			default:
				continue
			}
			if name == "_" || read[obj] {
				continue
			}
			out = append(out, unreadDecl{key: p.dir + "." + name, kind: kind, pos: p.fset.Position(obj.Pos())})
		}
		for _, f := range structFields(p) {
			if f.v.Name() == "_" || f.tagged || ruled[f.v] || read[f.v] {
				continue
			}
			out = append(out, unreadDecl{key: p.dir + "." + f.path, kind: "field", pos: p.fset.Position(f.v.Pos())})
		}
	}
	return out
}

// ownSpecs maps each package-level type, const and var p declares to the
// spec that declares it.
func ownSpecs(p *progPkg) map[types.Object]ast.Spec {
	own := make(map[types.Object]ast.Spec)
	for _, f := range p.files {
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range g.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					own[p.info.Defs[s.Name]] = s
				case *ast.ValueSpec:
					for _, name := range s.Names {
						own[p.info.Defs[name]] = s
					}
				}
			}
		}
	}
	return own
}

// fieldWrites returns the field identifiers in p's files that are written
// and not read: the fields an assignment, op-assign or ++/-- stores into,
// composite literal keys, and the receiver of a discarded Add, Store or
// Set on a sync/atomic or expvar value. A write into a field of a struct
// value held in a field (a.b.c = v) writes b too; a write through a
// pointer, slice or map reads the field that holds it.
func fieldWrites(p *progPkg) map[*ast.Ident]bool {
	w := make(map[*ast.Ident]bool)
	var store func(e ast.Expr)
	store = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := p.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			w[x.Sel] = true
			if _, ptr := p.info.TypeOf(x.X).Underlying().(*types.Pointer); !ptr && len(sel.Index()) == 1 {
				store(x.X)
			}
		case *ast.IndexExpr:
			if _, arr := p.info.TypeOf(x.X).Underlying().(*types.Array); arr {
				store(x.X)
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for _, e := range x.Lhs {
						store(e)
					}
				}
			case *ast.IncDecStmt:
				store(x.X)
			case *ast.ExprStmt:
				if recv := counterWrite(p, x.X); recv != nil {
					store(recv)
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
						w[id] = true
					}
				}
			}
			return true
		})
	}
	return w
}

// counterWrite returns the receiver of e when e is a call of Add, Store or
// Set on a sync/atomic or expvar value held directly (not through a
// pointer), and nil otherwise.
func counterWrite(p *progPkg, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	sel := p.info.Selections[fun]
	if sel == nil || sel.Kind() != types.MethodVal {
		return nil
	}
	switch fun.Sel.Name {
	case "Add", "Store", "Set":
	default:
		return nil
	}
	if path := sel.Obj().Pkg().Path(); path != "sync/atomic" && path != "expvar" {
		return nil
	}
	if _, ptr := p.info.TypeOf(fun.X).Underlying().(*types.Pointer); ptr {
		return nil
	}
	return fun.X
}

// markCompared records every field a comparison of typ reads: the fields
// of a struct, of its struct-typed fields and of an array's elements.
func markCompared(typ types.Type, ruled map[*types.Var]bool) {
	if typ == nil {
		return
	}
	switch t := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i).Origin()
			if !ruled[f] {
				ruled[f] = true
				markCompared(f.Type(), ruled)
			}
		}
	case *types.Array:
		markCompared(t.Elem(), ruled)
	}
}

// derefStruct returns the struct typ is or points to.
func derefStruct(typ types.Type) (*types.Struct, bool) {
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	return st, ok
}

// declField is one struct field p's files declare.
type declField struct {
	v      *types.Var
	path   string // "Type.field", "Type.outer.field" inside an anonymous struct
	tagged bool
}

// structFields lists the fields of every struct type p's files spell out,
// named by the type, var or field that holds the struct. A struct that
// none of those names (a composite literal's element type, say) is named
// by its position.
func structFields(p *progPkg) []declField {
	var out []declField
	seen := make(map[*ast.StructType]bool)
	var walk func(e ast.Expr, prefix string)
	walk = func(e ast.Expr, prefix string) {
		switch x := e.(type) {
		case *ast.StarExpr:
			walk(x.X, prefix)
		case *ast.ArrayType:
			walk(x.Elt, prefix)
		case *ast.MapType:
			walk(x.Value, prefix)
		case *ast.StructType:
			seen[x] = true
			st, ok := p.info.TypeOf(x).(*types.Struct)
			if !ok {
				return
			}
			i := 0
			for _, fl := range x.Fields.List {
				n := max(len(fl.Names), 1)
				for range n {
					v := st.Field(i)
					out = append(out, declField{v: v, path: prefix + "." + v.Name(), tagged: st.Tag(i) != ""})
					walk(fl.Type, prefix+"."+v.Name())
					i++
				}
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				walk(x.Type, x.Name.Name)
			case *ast.ValueSpec:
				if x.Type != nil && len(x.Names) > 0 {
					walk(x.Type, x.Names[0].Name)
				}
			case *ast.StructType:
				if !seen[x] {
					pos := p.fset.Position(x.Pos())
					walk(x, fmt.Sprintf("struct@%s:%d", filepath.Base(pos.Filename), pos.Line))
				}
			}
			return true
		})
	}
	return out
}

// TestDeclReadRules runs the analysis behind TestEveryDeclRead on a small
// module whose every declaration is named for what the rules make of it.
func TestDeclReadRules(t *testing.T) {
	const src = `package p

import "sync/atomic"

type T struct {
	assigned, opAssigned, bumped, keyed int
	counter, stored                     atomic.Int64
	nested                              inner
	arr                                 [2]int
	viaPtr                              *inner
	viaSlice                            []int
	loaded, addUsed, swapped            atomic.Int64
	plain                               int
	tagged                              int ` + "`json:\"t\"`" + `
	_                                   int
}

type inner struct{ x int }
type pair struct{ a, b int }
type mapKey struct{ k int }
type compared struct{ c int }
type deep struct{ y int }
type outer struct{ deep }
type node struct{ next *node }

const usedConst, unusedConst = 1, 2

var unusedVar int

type unusedType int

func F(t *T, o *outer, m map[mapKey]int, c compared) int {
	t.assigned = usedConst
	t.opAssigned += 1
	t.bumped++
	_ = T{keyed: 1}
	_ = pair{1, 2}
	t.counter.Add(1)
	t.stored.Store(1)
	t.nested.x = 1
	t.arr[0] = 1
	t.viaPtr.x = 1
	t.viaSlice[0] = 1
	n := t.loaded.Load() + t.addUsed.Add(1)
	if t.swapped.CompareAndSwap(0, 1) || c == (compared{}) {
		n++
	}
	return int(n) + t.plain + o.y + len(m)
}
`
	root := t.TempDir()
	for _, dir := range importerRoots {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(root, "internal/p"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal/p/p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := loadProgram(root, "m")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unreadDecls(prog) {
		got = append(got, strings.TrimPrefix(d.key, "internal/p."))
	}
	sort.Strings(got)
	want := []string{
		"T.arr", "T.assigned", "T.bumped", "T.counter", "T.keyed", "T.nested", "T.opAssigned", "T.stored",
		"inner.x", "node", "node.next", "pair.a", "pair.b", "unusedConst", "unusedType", "unusedVar",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unread:\n got %v\nwant %v", got, want)
	}
}
