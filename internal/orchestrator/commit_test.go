package orchestrator

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nffg"
	"repro/internal/openflow"
	"repro/internal/vswitch"
)

// TestSteeringOnlyCommits holds the orchestrator to one steering path: apart
// from adding and removing ports, its non-test code changes a switch only
// through Controller.Commit, which replaces one cookie's whole entry set as
// one table publish.
func TestSteeringOnlyCommits(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{"AddFlow": true, "SwapFlows": true, "DeleteFlows": true, "CommitFlows": true, "InstallFlow": true}
	fset := token.NewFileSet()
	commits := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			switch {
			case !ok:
			case forbidden[sel.Sel.Name]:
				t.Errorf("%v: %s call: program a switch through Controller.Commit", fset.Position(call.Pos()), sel.Sel.Name)
			case sel.Sel.Name == "Commit":
				commits++
			}
			return true
		})
	}
	if commits == 0 {
		t.Error("no Commit call found: the guard parsed the wrong files")
	}
}

// publishes reads a switch's flow-table publish counter.
func publishes(sw *vswitch.Switch) uint64 { return sw.Telemetry().Publishes }

// TestOnePublishPerOperation counts flow-table publishes: every operation
// commits each entry set it changes once, so a deploy of an n-rule graph is
// one publish on its LSI, not n, and each endpoint or shared-NNF attachment
// and detachment is one publish on LSI-0. An undeploy commits nothing on the
// LSI it closes. A transition that drains outgoing
// members (a reflavor, a scale-in, a promotion) commits twice: once to
// repoint the steering with the drain path, once to drop the drain path.
func TestOnePublishPerOperation(t *testing.T) {
	o := newNode(t)
	lsi0 := o.LSI0()
	step := func(what string, op func() error, lsi *vswitch.Switch, wantLSI, wantLSI0 uint64) {
		t.Helper()
		var before uint64
		if lsi != nil {
			before = publishes(lsi)
		}
		before0 := publishes(lsi0)
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if lsi != nil {
			if got := publishes(lsi) - before; got != wantLSI {
				t.Errorf("%s: %d publishes on the graph LSI, want %d", what, got, wantLSI)
			}
		}
		if got := publishes(lsi0) - before0; got != wantLSI0 {
			t.Errorf("%s: %d publishes on LSI-0, want %d", what, got, wantLSI0)
		}
	}
	lsiOf := func(id string) *vswitch.Switch {
		t.Helper()
		d, ok := o.Graph(id)
		if !ok {
			t.Fatalf("graph %q not deployed", id)
		}
		return d.LSI()
	}

	// A 4-rule graph with two interface endpoints and one docker NAT.
	g := natGraph("g1", 1)
	before0 := publishes(lsi0)
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	lsi := lsiOf("g1")
	if got := publishes(lsi); got != 1 {
		t.Errorf("deploy: %d publishes on the graph LSI, want 1 for %d rules", got, len(g.Rules))
	}
	if got := publishes(lsi0) - before0; got != 2 {
		t.Errorf("deploy: %d publishes on LSI-0, want 2 (one per endpoint)", got)
	}

	steered := g.Clone()
	steered.Rules[0].Priority = 20
	step("steering update", func() error { return o.Update(steered) }, lsi, 1, 0)
	withEP := steered.Clone()
	withEP.Endpoints = append(withEP.Endpoints, nffg.Endpoint{ID: "mgmt", Type: nffg.EPVLAN, Interface: "eth0", VLANID: 77})
	step("endpoint attach", func() error { return o.Update(withEP) }, lsi, 1, 1)
	step("endpoint detach", func() error { return o.Update(steered) }, lsi, 1, 1)
	step("scale-out", func() error { return o.Scale("g1", "nat", 3) }, lsi, 1, 0)
	step("scale-in", func() error { return o.Scale("g1", "nat", 2) }, lsi, 2, 0)
	step("undeploy", func() error { return o.Undeploy("g1") }, lsi, 0, 2)

	if err := o.Deploy(ipsecGraph("g2", nffg.TechVM)); err != nil {
		t.Fatal(err)
	}
	step("reflavor", func() error { return o.Reflavor("g2", "vpn", nffg.TechNative) }, lsiOf("g2"), 2, 0)

	if err := o.Deploy(natStandbyGraph("g3")); err != nil {
		t.Fatal(err)
	}
	if err := o.KillNF("g3", "nat"); err != nil {
		t.Fatal(err)
	}
	step("standby promotion", func() error { return o.PromoteStandby("g3", "nat") }, lsiOf("g3"), 2, 0)

	// A shared native firewall: its marks are one more LSI-0 attachment.
	step("shared-NNF deploy", func() error { return o.Deploy(firewallGraph("g4", 100, "")) }, nil, 0, 3)
	if got := publishes(lsiOf("g4")); got != 1 {
		t.Errorf("shared-NNF deploy: %d publishes on the graph LSI, want 1", got)
	}
	step("shared-NNF undeploy", func() error { return o.Undeploy("g4") }, lsiOf("g4"), 0, 3)

	// A replicated deploy launches its whole set before it steers it.
	step("replicated deploy", func() error { return o.Deploy(natGraph("g5", 3)) }, nil, 0, 2)
	if got := publishes(lsiOf("g5")); got != 1 {
		t.Errorf("replicated deploy: %d publishes on the graph LSI, want 1", got)
	}
}

// flowDump renders a switch's flow table, counters included.
func flowDump(sw *vswitch.Switch) string {
	var b strings.Builder
	for _, e := range sw.Flows() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRefusedCommitLeavesTableUnchanged commits entry sets whose k-th entry
// the switch refuses (a VLAN that does not fit 12 bits), on a graph LSI and
// on LSI-0: Commit fails naming it, the table and the cache generation are
// untouched, and the channel serves the next commit. A deploy whose LSI-0
// commit is refused rolls back whole.
func TestRefusedCommitLeavesTableUnchanged(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechDocker)); err != nil {
		t.Fatal(err)
	}
	d, _ := o.Graph("g1")
	for _, c := range []struct {
		name   string
		lsi    *lsiConn
		cookie uint64
	}{
		{"graph LSI", d.lsi, d.cookie},
		{"LSI-0", o.lsi0, d.eps["lan"].cookie},
	} {
		flows, gen, pubs := flowDump(c.lsi.sw), c.lsi.sw.CacheStats().Generation, publishes(c.lsi.sw)
		for k := 0; k < 3; k++ {
			es := openflow.NewEntries(3)
			for i := 0; i < 3; i++ {
				vlan := uint16(10 + i)
				if i == k {
					vlan = 5000
				}
				es.Add(50, vswitch.MatchAll().WithInPort(1), vswitch.PushVLAN(vlan), vswitch.Output(2))
			}
			err := c.lsi.ctrl.Commit(c.cookie, &es)
			if err == nil || !strings.Contains(err.Error(), "5000") {
				t.Fatalf("%s: entry %d refused: Commit = %v, want an error naming VLAN 5000", c.name, k, err)
			}
			if got := flowDump(c.lsi.sw); got != flows {
				t.Fatalf("%s: entry %d refused: table changed:\n%s\nwant:\n%s", c.name, k, got, flows)
			}
			if got := c.lsi.sw.CacheStats().Generation; got != gen {
				t.Errorf("%s: entry %d refused: cache generation %d, want %d", c.name, k, got, gen)
			}
			if got := publishes(c.lsi.sw); got != pubs {
				t.Errorf("%s: entry %d refused: %d publishes, want %d", c.name, k, got, pubs)
			}
		}
		if err := c.lsi.ctrl.Barrier(); err != nil {
			t.Errorf("%s: channel dead after a refused commit: %v", c.name, err)
		}
	}
	o.mu.Lock()
	err := o.program(d)
	o.mu.Unlock()
	if err != nil {
		t.Fatalf("recommitting the graph after refused commits: %v", err)
	}

	flows0, ports0 := flowDump(o.lsi0.sw), o.lsi0.sw.Ports()
	cpu, _, ram, _ := o.Usage()
	// A FLOW_MOD refused while staged fails the next commit on LSI-0: the
	// shared firewall's marks, the first thing the deploy commits there.
	if err := o.lsi0.ctrl.InstallFlow(0, 1, 999, vswitch.MatchAll().WithVLAN(5000), nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(firewallGraph("g2", 300, "")); err == nil || !strings.Contains(err.Error(), "5000") {
		t.Fatalf("deploy over a refused LSI-0 commit = %v, want an error naming VLAN 5000", err)
	}
	if _, ok := o.Graph("g2"); ok {
		t.Error("failed deploy left the graph deployed")
	}
	if got := flowDump(o.lsi0.sw); got != flows0 {
		t.Errorf("failed deploy changed LSI-0's table:\n%s\nwant:\n%s", got, flows0)
	}
	if got := o.lsi0.sw.Ports(); len(got) != len(ports0) {
		t.Errorf("failed deploy left LSI-0 ports %v, want %v", got, ports0)
	}
	if c, _, r, _ := o.Usage(); c != cpu || r != ram {
		t.Errorf("failed deploy left usage %d CPU / %d RAM, want %d / %d", c, r, cpu, ram)
	}
	if err := o.Deploy(firewallGraph("g2", 300, "")); err != nil {
		t.Errorf("deploy after the rollback: %v", err)
	}
}

// vlanGraph is an NF-less graph joining VLANs vlan and vlan+1 of eth0.
func vlanGraph(id string, vlan uint16) *nffg.Graph {
	return &nffg.Graph{
		ID: id,
		Endpoints: []nffg.Endpoint{
			{ID: "a", Type: nffg.EPVLAN, Interface: "eth0", VLANID: vlan},
			{ID: "b", Type: nffg.EPVLAN, Interface: "eth0", VLANID: vlan + 1},
		},
		Rules: []nffg.FlowRule{
			{ID: "ab", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("a")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("b")}}},
			{ID: "ba", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("b")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("a")}}},
		},
	}
}

// TestLSI0PortNumbersStayBounded attaches and detaches 1 000 endpoints on
// LSI-0 while other graphs come and go around them: LSI-0 hands out the
// lowest free number, so its highest port number never exceeds the most
// ports it had attached at once.
func TestLSI0PortNumbersStayBounded(t *testing.T) {
	o := newNode(t)
	peak, highest := 0, uint32(0)
	observe := func() {
		ports := o.LSI0().Ports()
		peak, highest = max(peak, len(ports)), max(highest, ports[len(ports)-1])
	}
	resident := func(i int) *nffg.Graph { return vlanGraph(fmt.Sprintf("r%d", i%3), uint16(100+2*(i%3))) }
	for i := 0; i < 3; i++ {
		if err := o.Deploy(resident(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if i%10 == 0 {
			// Leave a hole below the churning graph's numbers.
			if err := o.Undeploy(resident(i).ID); err != nil {
				t.Fatal(err)
			}
			observe()
			if err := o.Deploy(resident(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.Deploy(vlanGraph("churn", 500)); err != nil {
			t.Fatal(err)
		}
		observe()
		if err := o.Undeploy("churn"); err != nil {
			t.Fatal(err)
		}
		observe()
	}
	t.Logf("highest LSI-0 port number %d, peak %d ports attached", highest, peak)
	if highest > uint32(peak) {
		t.Errorf("highest LSI-0 port number %d after 1000 endpoint attach/detach cycles, peak ports attached %d", highest, peak)
	}
}

// TestRefusedDeleteHoldsPortNumber fails the commit that deletes one
// endpoint's LSI-0 entries. Those entries stay installed and name the
// endpoint's LSI-0 port, so its number is never handed out again, while the
// number of the endpoint whose delete went through is reused at once.
func TestRefusedDeleteHoldsPortNumber(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(vlanGraph("g", 100)); err != nil {
		t.Fatal(err)
	}
	d, _ := o.Graph("g")
	ports := map[uint64]uint32{}
	for _, att := range d.eps {
		ports[att.cookie] = att.lsi0Port
	}
	// A FLOW_MOD refused while staged fails the next commit on LSI-0: the
	// delete of the first endpoint the undeploy detaches.
	if err := o.lsi0.ctrl.InstallFlow(0, 1, 999, vswitch.MatchAll().WithVLAN(5000), nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Undeploy("g"); err != nil {
		t.Fatal(err)
	}
	var held, freed []uint32
	for cookie, num := range ports {
		stale := false
		for _, e := range o.LSI0().Flows() {
			stale = stale || e.Cookie == cookie
		}
		if stale {
			held = append(held, num)
		} else {
			freed = append(freed, num)
		}
	}
	if len(held) != 1 || len(freed) != 1 {
		t.Fatalf("after one refused delete: ports %v held, %v freed; want one each", held, freed)
	}
	reused := false
	for i := 0; i < 8; i++ {
		if err := o.Deploy(vlanGraph(fmt.Sprintf("h%d", i), uint16(200+2*i))); err != nil {
			t.Fatal(err)
		}
		d, _ := o.Graph(fmt.Sprintf("h%d", i))
		for _, att := range d.eps {
			if att.lsi0Port == held[0] {
				t.Fatalf("LSI-0 port %d reused while a stale entry names it", held[0])
			}
			reused = reused || att.lsi0Port == freed[0]
		}
	}
	if !reused {
		t.Errorf("the number %d of the cleanly detached endpoint was never reused", freed[0])
	}
}
