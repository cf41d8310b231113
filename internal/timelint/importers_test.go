package timelint

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// importerRoots are the trees whose non-test Go files count as production
// importers.
var importerRoots = []string{"cmd", "examples", "benchmark", "internal"}

// unimported maps an internal package that no production file imports to
// the reason it may stay. Every entry needs a justification.
var unimported = map[string]string{
	"internal/timelint": "holds only the repository's lint tests",
}

// TestEveryPackageImported fails on any package under internal/ that no
// non-test Go file outside that package imports: code that only its own
// tests reach is a module to delete, not to maintain. Files under cmd/,
// examples/, benchmark/ and internal/ all count as importers. CI runs this
// by name beside TestNoNakedTime.
func TestEveryPackageImported(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make(map[string]bool)     // internal package dirs with production files
	imported := make(map[string]bool) // package dirs some other package imports
	for _, top := range importerRoots {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := e.Name()
			if e.IsDir() {
				if name == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(rel)
			if top == "internal" {
				pkgs[dir] = true
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, im := range f.Imports {
				p, err := strconv.Unquote(im.Path.Value)
				if err != nil {
					return err
				}
				if dep, ok := strings.CutPrefix(p, mod+"/"); ok && dep != dir {
					imported[dep] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var orphans []string
	for dir := range pkgs {
		if imported[dir] {
			continue
		}
		if reason, ok := unimported[dir]; ok {
			t.Logf("allowlisted: %s (%s)", dir, reason)
			continue
		}
		orphans = append(orphans, dir)
	}
	for dir := range unimported {
		if !pkgs[dir] || imported[dir] {
			t.Errorf("allowlist entry %s is stale: the package is gone or now imported", dir)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("packages no production file imports (delete them, or allowlist with a reason):\n  %s",
			strings.Join(orphans, "\n  "))
	}
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("no module line in go.mod")
}
