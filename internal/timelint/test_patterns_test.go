package timelint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// patternSources are the files whose `go test` commands name gates: the CI
// workflow, and the verification notes whose commands a builder copies.
var patternSources = []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// testFunc matches the declaration of a function `go test` selects by name.
var testFunc = regexp.MustCompile(`^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// TestNoStaleTestPattern fails on a `-run` or `-fuzz` pattern in a `go test`
// command of ci.yml or SKILL.md that selects nothing in the packages the
// command names. `go test` passes such a pattern with "no tests to run", so
// renaming or mistyping a gated test would silently drop its gate. Each
// top-level alternative of a pattern ('A|B') must match on its own: a gate
// list with one stale name still matches through the others. A `-run` that
// only deselects tests for `-fuzz` or `-bench` ('^$') is not checked.
func TestNoStaleTestPattern(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{} // package directory → its test functions
	lookup := func(dir string) ([]string, error) {
		if n, ok := names[dir]; ok {
			return n, nil
		}
		n, err := testFuncs(filepath.Join(root, dir))
		names[dir] = n
		return n, err
	}
	checked := 0
	for _, src := range patternSources {
		data, err := os.ReadFile(filepath.Join(root, src))
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range goTestCommands(string(data), strings.HasSuffix(src, ".md")) {
			checked++
			for _, p := range stalePatterns(cmd, lookup) {
				t.Errorf("%s: %s", src, p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test command to check")
	}
}

// testFuncs lists the Test, Fuzz and Benchmark functions in dir's test
// files, and in every package below it for a dir ending in "/...".
func testFuncs(dir string) ([]string, error) {
	var out []string
	walk := func(d string) error {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			fh, err := os.Open(f)
			if err != nil {
				return err
			}
			sc := bufio.NewScanner(fh)
			for sc.Scan() {
				if m := testFunc.FindStringSubmatch(sc.Text()); m != nil {
					out = append(out, m[1])
				}
			}
			fh.Close()
			if err := sc.Err(); err != nil {
				return err
			}
		}
		return nil
	}
	base, recursive := strings.CutSuffix(dir, string(filepath.Separator)+"...")
	if st, err := os.Stat(base); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("no package directory %s", base)
	}
	if !recursive {
		return out, walk(base)
	}
	return out, filepath.WalkDir(base, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if e.Name() == "testdata" {
			return filepath.SkipDir
		}
		return walk(path)
	})
}

// goTestCommands returns what follows each "go test " in text up to the
// end of its line (shellFields ends the command at a pipe or list
// operator). In markdown a command is a line of a fenced block or an inline
// code span, which may wrap across lines.
func goTestCommands(text string, markdown bool) []string {
	var lines []string
	if !markdown {
		lines = strings.Split(text, "\n")
	} else {
		var prose []string
		fenced := false
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				lines = append(lines, l)
			} else {
				prose = append(prose, strings.TrimSpace(l))
			}
		}
		for i, span := range strings.Split(strings.Join(prose, " "), "`") {
			if i%2 == 1 { // inside a code span
				lines = append(lines, span)
			}
		}
	}
	var cmds []string
	for _, l := range lines {
		for {
			i := strings.Index(l, "go test ")
			if i < 0 {
				break
			}
			l = l[i+len("go test "):]
			cmds = append(cmds, l)
		}
	}
	return cmds
}

// stalePatterns reports each alternative of cmd's -run and -fuzz patterns
// that matches no test function in the packages cmd names (the current
// directory when it names none), or else each package that does not exist.
// names lists the test functions of a package directory, relative to the
// module root.
func stalePatterns(cmd string, names func(dir string) ([]string, error)) []string {
	args := shellFields(cmd)
	var pkgs []string
	flags := map[string]string{}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		switch name {
		case "run", "fuzz", "bench", "count", "timeout", "fuzztime", "fuzzminimizetime", "benchtime": // the valued flags the sources use
			if !hasVal && i+1 < len(args) {
				i++
				val = args[i]
			}
		}
		flags[name] = val
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var known, out []string
	for _, p := range pkgs {
		n, err := names(filepath.Clean(p))
		if err != nil {
			out = append(out, fmt.Sprintf("go test %s: %v", strings.TrimSpace(cmd), err))
		}
		known = append(known, n...)
	}
	if out != nil {
		return out
	}
	for _, flag := range []string{"run", "fuzz"} {
		pat, ok := flags[flag]
		if !ok {
			continue
		}
		if _, deselect := flags["fuzz"]; flag == "run" && deselect {
			continue
		}
		if _, deselect := flags["bench"]; flag == "run" && deselect {
			continue
		}
		for _, alt := range alternatives(pat) {
			top, _, _ := strings.Cut(alt, "/") // a subtest pattern's parent
			re, err := regexp.Compile(top)
			if err != nil {
				out = append(out, fmt.Sprintf("go test %s: -%s %q: %v", strings.TrimSpace(cmd), flag, alt, err))
				continue
			}
			if !slices.ContainsFunc(known, re.MatchString) {
				out = append(out, fmt.Sprintf("go test %s: -%s %q matches no test in %s",
					strings.TrimSpace(cmd), flag, alt, strings.Join(pkgs, " ")))
			}
		}
	}
	return out
}

// alternatives splits a regular expression at its top-level '|'.
func alternatives(pat string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pat[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pat[start:])
}

// shellFields splits a command line at spaces, keeping single- and
// double-quoted words whole and dropping the quotes, up to the first
// unquoted pipe or list operator.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	var quote byte
	inWord := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == '|' || c == ';' || c == '&':
			i = len(s)
		case c == ' ' || c == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// TestStalePatternRules runs the checks behind TestNoStaleTestPattern on
// commands against a made-up package, so each rule fails here by name if
// it stops holding.
func TestStalePatternRules(t *testing.T) {
	pkg := []string{"TestAlpha", "TestAlphaBeta", "FuzzGamma", "BenchmarkDelta"}
	names := func(dir string) ([]string, error) {
		if dir != filepath.Clean("./pkg/") && dir != filepath.Clean("./...") {
			return nil, fmt.Errorf("no package directory %s", dir)
		}
		return pkg, nil
	}
	cases := []struct {
		cmd   string
		stale int
	}{
		{"-run 'TestAlpha|FuzzGamma' ./pkg/", 0},
		{"-count=1 -run=TestAlphaBeta -v ./pkg/", 0},
		{"-run 'TestAlpha|FuzzGamma' ./pkg/ | tee out && -run TestGone", 0},
		{"-run 'TestAlpha|TestAlhpa' ./pkg/", 1},
		{"./pkg/ -run TestGone -update", 1},
		{"-run 'TestAlpha/sub case' ./pkg/", 0},
		{"-run '^$' -fuzz FuzzGamma -fuzztime 10s ./pkg/", 0},
		{"-run '^$' -fuzz FuzzGone ./pkg/", 1},
		{"-run 'XXX_NONE' -bench . -benchtime 1x ./...", 0},
		{"-run 'Test(Alpha|Omega)' ./pkg/", 0},
		{"-run TestAlpha ./missing/", 1},
		{"-run 'TestA[' ./pkg/", 1},
	}
	for _, c := range cases {
		if got := stalePatterns(c.cmd, names); len(got) != c.stale {
			t.Errorf("go test %s: %d findings %q, want %d", c.cmd, len(got), got, c.stale)
		}
	}

	md := "Run\n```bash\ngo test -run TestA ./a/ | tee x\n```\nand `go test -run '^$' -fuzz FuzzB\n  -fuzztime 10s ./b/`; `go vet`."
	want := []string{"-run TestA ./a/ | tee x", "-run '^$' -fuzz FuzzB -fuzztime 10s ./b/"}
	if got := goTestCommands(md, true); !slices.Equal(got, want) {
		t.Errorf("markdown commands %q, want %q", got, want)
	}
	yml := "        run: go test -count=1 -run 'A|B' ./x/\n          go test -race ./... && echo\n"
	want = []string{"-count=1 -run 'A|B' ./x/", "-race ./... && echo"}
	if got := goTestCommands(yml, false); !slices.Equal(got, want) {
		t.Errorf("workflow commands %q, want %q", got, want)
	}
}
