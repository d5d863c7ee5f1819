package un_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryTarget: every fuzz target of this module has its
// line in the Makefile's fuzz recipe, which the nightly job runs, naming
// its package: a target missing there only ever runs its seeds.
func TestMakeFuzzRunsEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := regexp.MustCompile(`(?m)^fuzz:\n((?:\t.*\n)+)`).FindSubmatch(makefile)
	if recipe == nil {
		t.Fatal("Makefile has no fuzz recipe")
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' .* \./(\S+)`).FindAllSubmatch(recipe[1], -1) {
		listed[string(m[2])+"."+string(m[1])] = true
	}
	target := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a nested module: not this one
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range target.FindAllSubmatch(src, -1) {
			found++
			if name := filepath.ToSlash(filepath.Dir(path)) + "." + string(m[1]); !listed[name] {
				t.Errorf("%s (%s) is not in the Makefile's fuzz recipe", m[1], path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz target")
	}
}
