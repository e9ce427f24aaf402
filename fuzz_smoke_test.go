package causalfl

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzFuncRe = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	fuzzLineRe = regexp.MustCompile(`-fuzz (\S+) .*?(\./\S+)\s*$`)
)

// TestFuzzSmokeListsEveryTarget: `make fuzz-smoke` is CI's only fuzz step,
// and go test fuzzes one target per invocation, so a fuzz target missing
// from its lines is never run. Every func Fuzz* in the module must appear
// there under its package, and every line must name a target that exists.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	listed := make(map[string]bool)
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		if m := fuzzLineRe.FindStringSubmatch(line); m != nil {
			listed[filepath.Clean(m[2])+"."+m[1]] = true
		}
	}

	found := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool ignores these directories, as does go test ./...
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFuncRe.FindAllStringSubmatch(string(src), -1) {
			found[filepath.Dir(path)+"."+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is not run by make fuzz-smoke", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("make fuzz-smoke runs %s, which does not exist", target)
		}
	}
}
