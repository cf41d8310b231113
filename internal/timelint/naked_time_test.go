package timelint

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// unguarded names the one internal package exempt from the gate:
// internal/simclock is where naked time.* calls are implemented. Every
// other package under internal/, present or future, is guarded.
const unguarded = "internal/simclock"

// nakedTime matches the time package's clock surface. Constructors and
// arithmetic (time.Duration, time.Unix, t.Add, t.Sub, t.Before) are fine —
// they do not read a clock or schedule a wakeup.
var nakedTime = regexp.MustCompile(`\btime\.(Now|NewTimer|NewTicker|Sleep|After|AfterFunc|Tick|Since)\(`)

// allowlist maps repo-relative file paths to the reason a naked call is
// tolerated there. Keep it empty unless a file genuinely cannot take an
// injected clock; every entry needs a justification.
var allowlist = map[string]string{}

// TestNoNakedTime walks every non-test Go file under internal/ except
// simclock and fails on any direct time.Now/NewTimer/NewTicker/Sleep/After/
// AfterFunc/Tick/Since call outside the allowlist. Comment lines are
// skipped so prose may name the forbidden functions. CI runs this by name;
// it also rides the ordinary `go test ./...` tier so the gate cannot be
// forgotten.
func TestNoNakedTime(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		name := e.Name()
		if e.IsDir() {
			if rel == unguarded || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if reason, ok := allowlist[rel]; ok {
			t.Logf("allowlisted: %s (%s)", rel, reason)
			return nil
		}
		violations = append(violations, scanFile(t, path, rel)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Errorf("naked time.* calls in guarded packages (inject simclock.Clock instead, or allowlist with a reason):\n  %s",
			strings.Join(violations, "\n  "))
	}
}

func scanFile(t *testing.T, path, rel string) []string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineno := 0
	inBlockComment := false
	for sc.Scan() {
		lineno++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if inBlockComment {
			if strings.Contains(trimmed, "*/") {
				inBlockComment = false
			}
			continue
		}
		if strings.HasPrefix(trimmed, "//") {
			continue
		}
		if strings.HasPrefix(trimmed, "/*") {
			if !strings.Contains(trimmed, "*/") {
				inBlockComment = true
			}
			continue
		}
		if m := nakedTime.FindString(line); m != "" {
			out = append(out, fmt.Sprintf("%s:%d: %s", rel, lineno, m))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// repoRoot finds the module root by walking up from the working directory
// to the nearest go.mod — the test binary may run from any package dir.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above test working directory")
		}
		dir = parent
	}
}
