package un_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks benchmarks/unbench against this
// checkout. The benchmark every PR is judged by is a nested module built
// from source against internal packages, which `go build ./... && go test
// ./...` at the root never compiles: without this test an internal API
// change that stops benchmarks/run.sh from building only shows up as a
// failed benchmark run.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmarks/unbench"
	// The module resolves repro through a replace directive: nothing is
	// fetched, and no other toolchain may be either.
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmarks/unbench: %v\n%s", err, out)
	}
}
