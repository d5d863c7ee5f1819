package un_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	un "repro"
	"repro/internal/bench"
	"repro/internal/global"
	"repro/internal/nnf"
	"repro/internal/rest"
)

// markPoolTenants is how many two-port tenants one node's mark pool holds on
// a shared native firewall: each takes an ingress and an egress mark per
// port.
const markPoolTenants = (int(nnf.MarkPoolEnd) - int(nnf.MarkPoolStart) + 1) / 4

// deployTenants deploys n firewall tenants through deploy and checks that
// each runs on the shared native firewall.
func deployTenants(t *testing.T, n int, deploy func(*un.Graph) error, node *un.Node) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("tenant%d", i)
		if err := deploy(bench.FirewallGraph(id, uint16(100+i), un.TechAny)); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		if p, _ := node.Placements(id); p["fw"] != un.TechNative {
			t.Fatalf("tenant %d runs its firewall as %q, want the shared native one", i, p["fw"])
		}
	}
}

// TestMarkPoolFullFallsBackToDocker fills one node's mark pool with tenants
// of a shared native firewall. The next tenant's dry-run once answered
// native, and its deploy then failed with the pool exhausted; both must now
// place that tenant's firewall in a container.
func TestMarkPoolFullFallsBackToDocker(t *testing.T) {
	node, err := un.NewNode(un.Config{Name: "cpe"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	deployTenants(t, markPoolTenants, node.Deploy, node)

	last := bench.FirewallGraph(fmt.Sprintf("tenant%d", markPoolTenants), uint16(100+markPoolTenants), un.TechAny)
	body, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/graphs/"+last.ID+"?dry-run=true", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, req)
	var reply rest.DryRunReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("dry-run: %d %s", rec.Code, rec.Body)
	}
	if len(reply.Plan.NFs) != 1 || reply.Plan.NFs[0].Technology != un.TechDocker {
		t.Errorf("dry-run plans %+v, want the firewall as docker", reply.Plan.NFs)
	}
	if err := node.Deploy(last); err != nil {
		t.Fatalf("deploy of the tenant the dry-run admitted: %v", err)
	}
	if p, _ := node.Placements(last.ID); p["fw"] != un.TechDocker {
		t.Errorf("the tenant past the mark pool runs as %q, want docker", p["fw"])
	}
}

// TestGlobalMarkPoolFullFallsBackToDocker is the same through the global
// orchestrator, on one node wide enough that capacity never decides.
func TestGlobalMarkPoolFullFallsBackToDocker(t *testing.T) {
	node, err := un.NewNode(un.Config{Name: "wide", CPUMillis: 100000, RAMBytes: 1 << 34})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	o := global.New(global.Config{Logf: t.Logf})
	defer o.Close()
	if err := o.AddNode(global.NewLocalNode("wide", node)); err != nil {
		t.Fatal(err)
	}
	deployTenants(t, markPoolTenants, o.Deploy, node)
	last := bench.FirewallGraph(fmt.Sprintf("tenant%d", markPoolTenants), uint16(100+markPoolTenants), un.TechAny)
	if err := o.Deploy(last); err != nil {
		t.Fatalf("global deploy of the tenant past the mark pool: %v", err)
	}
	if p, _ := node.Placements(last.ID); p["fw"] != un.TechDocker {
		t.Errorf("the tenant past the mark pool runs as %q, want docker", p["fw"])
	}
}
