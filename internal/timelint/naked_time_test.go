package timelint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guardedPackages are the internal packages where every clock read, sleep,
// and timer must go through an injected simclock.Clock. internal/simclock
// itself is the one place naked time.* calls are implemented, and is
// deliberately absent.
var guardedPackages = []string{
	"internal/sessiond",
	"internal/journal",
	"internal/transport",
	"internal/network",
	"internal/statesync",
	"internal/udpbatch",
	"internal/bench",
	"internal/telemetry",
}

// nakedTime matches the time package's clock surface. Constructors and
// arithmetic (time.Duration, time.Unix, t.Add, t.Sub, t.Before) are fine —
// they do not read a clock or schedule a wakeup.
var nakedTime = regexp.MustCompile(`\btime\.(Now|NewTimer|NewTicker|Sleep|After|AfterFunc|Tick|Since)\(`)

// allowlist maps repo-relative file paths to the reason a naked call is
// tolerated there. Keep it empty unless a file genuinely cannot take an
// injected clock; every entry needs a justification.
var allowlist = map[string]string{}

// TestNoNakedTime walks every non-test Go file in the guarded packages and
// fails on any direct time.Now/NewTimer/NewTicker/Sleep/After/AfterFunc/
// Tick/Since call outside the allowlist. Comment lines are skipped so
// prose may name the forbidden functions. CI runs this by name; it also
// rides the ordinary `go test ./...` tier so the gate cannot be forgotten.
func TestNoNakedTime(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	for _, pkg := range guardedPackages {
		dir := filepath.Join(root, pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("guarded package missing: %v", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			rel := pkg + "/" + name
			if reason, ok := allowlist[rel]; ok {
				t.Logf("allowlisted: %s (%s)", rel, reason)
				continue
			}
			violations = append(violations, scanFile(t, filepath.Join(dir, name), rel)...)
		}
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
