package streambalance_test

import (
	"bufio"
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

// withoutImporter names the internal packages that no program imports on
// purpose, each with its reason.
var withoutImporter = map[string]string{
	"testutil": "test helpers by design: only _test.go files import it",
	"soak":     "run by its own test, from `make soak` and CI chaos-soak-smoke",
}

// TestEveryInternalPackageHasAnImporter fails when an internal package is
// imported by no non-test file outside itself: code no program runs is
// deleted, not kept.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	module := modulePath(t)
	fset := token.NewFileSet()
	pkgs := map[string]bool{}          // internal package dirs, slash-separated
	importers := map[string][]string{} // import path -> importing dirs
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			importers[p] = append(importers[p], dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages: run from the module root")
	}
	var orphans []string
	for dir := range pkgs {
		name := strings.TrimPrefix(dir, "internal/")
		used := false
		for _, from := range importers[module+"/"+dir] {
			used = used || from != dir
		}
		if _, ok := withoutImporter[name]; ok {
			if used {
				t.Errorf("internal/%s is imported now: drop it from withoutImporter", name)
			}
			continue
		}
		if !used {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s: no non-test file outside the package imports it", dir)
	}
}

// modulePath reads the module line of go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	f, err := os.Open("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}
