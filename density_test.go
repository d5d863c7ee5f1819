//go:build !race

// Heap figures differ under the race detector's instrumentation.

package un_test

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	un "repro"
	"repro/internal/bench"
)

// tenantsInuse names the file TestTenantDensity writes its heap profile to
// while every tenant is deployed (`make profile`, with -memprofilerate=1):
// go test's own -memprofile is written once the node is closed.
var tenantsInuse = flag.String("tenants.inuse", "", "write TestTenantDensity's heap profile, taken with every tenant deployed, to this file")

// TestTenantDensity deploys 200 two-port firewall tenants on one shared
// native firewall on one node, the paper's resource-poor CPE serving many
// tenants (A1). Each graph LSI is programmed by a synchronous call into its
// switch's agent, so a tenant adds no goroutine; over a net.Pipe each added
// two (the agent loop and the controller's read loop) and retained
// 13.8 KB; with no goroutines a tenant retained 9.5 KB, and 8.14 KB since
// its LSI's lane and latency histogram, its firewall set's bucket map and
// its channel's connection state are built only when used. Of those
// 8.14 KB, 0.89 KB was the node's journal growing to its 1 024-event ring
// while the tenants deployed, a cost a node pays once: the baseline is now
// taken with the ring full, and a tenant reads 7.25 KB. The heap ceiling
// is that reading plus 10%. Closing the node leaves no goroutine behind.
func TestTenantDensity(t *testing.T) {
	const (
		tenants   = 200
		ceilingKB = 8.0
	)
	base := runtime.NumGoroutine()
	node, err := un.NewNode(un.Config{Name: "cpe"})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := bench.DeployTenants(node, un.TechNative, tenants)
	if err != nil {
		node.Close()
		t.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		if p, _ := node.Placements(fmt.Sprintf("tenant%d", i)); p["fw"] != un.TechNative {
			t.Fatalf("tenant %d runs its firewall as %q, want the shared native one", i, p["fw"])
		}
	}
	if *tenantsInuse != "" {
		f, err := os.Create(*tenantsInuse)
		if err == nil {
			err = pprof.Lookup("heap").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			t.Error(err)
		}
	}
	t.Logf("per tenant at %d tenants: %.2f KB retained (ceiling %.1f KB), %.2f goroutines", tenants, fp.KB, ceilingKB, fp.Goroutines)
	if fp.Goroutines > 0 { // below 0 only if an earlier test's goroutines were still exiting
		t.Errorf("%.2f goroutines per tenant, want 0", fp.Goroutines)
	}
	if fp.KB > ceilingKB {
		t.Errorf("%.2f KB retained per tenant, ceiling %.1f KB", fp.KB, ceilingKB)
	}
	node.Close()
	// The node's loops exit after Close returns: give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before the node", n, base)
	}
}

// TestIdleNodeFootprint holds what a node with no graph retains: its
// switch, registries, image store and journal, none of which has yet been
// used. It read 123.5 KB while the 1 024-event journal ring (96 KB) and
// LSI-0's inline lane and latency histogram were allocated up front, and
// 26.1 KB since they are built on first use; the ceiling is that reading
// plus 10 %. A node built and closed first takes the process's one-time
// state out of the reading.
func TestIdleNodeFootprint(t *testing.T) {
	const (
		nodes     = 8
		ceilingKB = 28.7
	)
	warm, err := un.NewNode(un.Config{Name: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	heap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second frees what the first only unlinked
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	idle := make([]*un.Node, nodes)
	for i := range idle {
		if idle[i], err = un.NewNode(un.Config{Name: fmt.Sprintf("idle%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	kb := (heap() - before) / nodes / 1024
	for _, n := range idle {
		n.Close()
	}
	t.Logf("an idle node retains %.1f KB (ceiling %.1f KB)", kb, ceilingKB)
	if kb > ceilingKB {
		t.Errorf("an idle node retains %.1f KB, ceiling %.1f KB", kb, ceilingKB)
	}
}
