package un_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// nonTestLines is the census of aim 2 (ROADMAP): the non-test lines, as
// `wc -l` counts them, of the .go files of each directory of the module
// outside benchmarks/, read when the directory last changed.
var nonTestLines = map[string]int{
	".":                     478,
	"cmd/chaos":             139,
	"cmd/nfbench":           102,
	"cmd/nffgctl":           343,
	"cmd/un-global":         189,
	"cmd/un-orchestrator":   70,
	"examples/availability": 136,
	"examples/hacluster":    178,
	"examples/multinode":    175,
	"examples/quickstart":   74,
	"examples/reflavor":     148,
	"examples/scaleout":     205,
	"internal/bench":        779,
	"internal/chaos":        1158,
	"internal/cluster":      1863,
	"internal/compute":      418,
	"internal/execenv":      336,
	"internal/global":       3535,
	"internal/imagestore":   177,
	"internal/jsonw":        884,
	"internal/netdev":       706,
	"internal/netns":        201,
	"internal/nf":           2265,
	"internal/nffg":         1096,
	"internal/nnf":          1078,
	"internal/openflow":     969,
	"internal/orchestrator": 3231,
	"internal/pkt":          1596,
	"internal/policy":       278,
	"internal/repository":   244,
	"internal/resources":    141,
	"internal/rest":         1118,
	"internal/telemetry":    761,
	"internal/vswitch":      2327,
}

// TestNonTestLinesHoldCensus makes aim 2 a gate: each directory's non-test
// lines stay within 2 % of their reading in nonTestLines. A change that
// grows a directory past that raises its reading in the same diff and says
// why in CHANGES.md; one that deletes code lowers it in the same diff. A
// directory with Go code and no reading fails.
func TestNonTestLinesHoldCensus(t *testing.T) {
	counted := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && (err == nil || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // a nested module (benchmarks/) or a hidden directory
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		counted[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(src, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, n := range counted {
		reading, ok := nonTestLines[dir]
		switch slack := reading / 50; {
		case !ok:
			t.Errorf("%s: %d non-test lines and no reading in nonTestLines", dir, n)
		case n > reading+slack:
			t.Errorf("%s: %d non-test lines, over its reading of %d + 2 %%: raise the reading and say why in CHANGES.md", dir, n, reading)
		case n < reading-slack:
			t.Errorf("%s: %d non-test lines, under its reading of %d - 2 %%: lower the reading", dir, n, reading)
		}
	}
	for dir := range nonTestLines {
		if _, ok := counted[dir]; !ok {
			t.Errorf("%s has a reading in nonTestLines but no non-test Go code: remove its row", dir)
		}
	}
}
