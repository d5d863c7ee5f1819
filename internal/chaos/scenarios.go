package chaos

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	un "repro"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/nffg"
)

// Scenarios returns the registered fault-injection experiments in the
// order the harness runs them.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "nf-instance-kill",
			Description: "kill an active-standby NAT's active instance; RepairNF must promote the warm standby with every binding intact",
			Budget:      Budget{MaxLossPct: 0, MaxStateLoss: 0, MaxReconverge: 2 * time.Second},
			run:         runNFInstanceKill,
		},
		{
			Name:        "node-kill-active-standby",
			Description: "kill the node hosting an active-standby NAT; the reconcile pass must promote the state-synced shadow node with zero state loss",
			Budget:      Budget{MaxLossPct: 0, MaxStateLoss: 0, MaxReconverge: 5 * time.Second},
			run:         runNodeKill,
		},
		{
			Name:        "link-sever",
			Description: "sever an inter-node link under a deployed cross-node chain; the graph must be re-placed over the remaining topology",
			Budget:      Budget{MaxLossPct: 0, MaxStateLoss: 0, MaxReconverge: 5 * time.Second},
			run:         runLinkSever,
		},
		{
			Name:        "rest-fault",
			Description: "fail then delay a node's REST control plane; the datapath must keep forwarding and the fleet must reconverge once REST heals",
			Budget:      Budget{MaxLossPct: 0, MaxStateLoss: 0, MaxReconverge: 5 * time.Second},
			run:         runRESTFault,
		},
		{
			Name:        "ha-leader-kill",
			Description: "crash the control-plane leader of a 3-replica cluster under live NAT traffic; a follower must be promoted with the full intent store intact, the deposed replica must fence, and no binding may be lost",
			Budget:      Budget{MaxLossPct: 0, MaxStateLoss: 0, MaxReconverge: time.Second},
			run:         runHALeaderKill,
		},
		{
			Name:        "ha-leader-partition",
			Description: "partition the leader from both followers; the majority must elect and keep taking writes, the isolated ex-leader must refuse mutations, and after healing it must rejoin and converge",
			Budget:      Budget{MaxLossPct: 0, MaxStateLoss: 0, MaxReconverge: time.Second},
			run:         runHALeaderPartition,
		},
	}
}

// runNFInstanceKill exercises the local tier: the NF crashes but the node
// survives, so RepairNF promotes the pre-attached standby instance through
// the same steering commit that scaling uses: the graph's entry set
// recompiled and applied over the LSI's OpenFlow channel as one table
// publish.
func runNFInstanceKill(o *Options) (stats, error) {
	var st stats
	f, err := newFleet(o, []nodeSpec{{name: "solo", ifaces: []string{"eth0", "eth1"}, cpuMillis: 4000}}, nil)
	if err != nil {
		return st, err
	}
	defer f.Close()
	node := f.nodes["solo"]
	if err := node.Deploy(natGraph("nk", nffg.RedundancyActiveStandby)); err != nil {
		return st, err
	}
	if sb := node.StandbyNFs("nk"); len(sb) != 1 {
		return st, fmt.Errorf("chaos: expected 1 standby NF, have %v", sb)
	}
	conns, err := establishNATConns(f, "solo", o.Conns)
	if err != nil {
		return st, err
	}
	node.SyncStandbys()
	if err := node.KillNF("nk", "nat"); err != nil {
		return st, err
	}
	t0 := time.Now()
	if err := node.RepairNF("nk", "nat"); err != nil {
		return st, fmt.Errorf("chaos: repairing killed NF: %w", err)
	}
	st.reconverge = time.Since(t0)
	return st, verifyNATConns(f, "solo", conns, &st)
}

// runNodeKill is the acceptance scenario: the whole node dies (its control
// plane stops answering), and the reconcile pass flips the graph onto the
// shadow node whose NAT was kept state-synced — bindings must survive.
func runNodeKill(o *Options) (stats, error) {
	var st stats
	f, err := newFleet(o, []nodeSpec{
		{name: "node-a", ifaces: []string{"eth0", "eth1"}, cpuMillis: 4000},
		{name: "node-b", ifaces: []string{"eth0", "eth1"}, cpuMillis: 4000},
	}, nil)
	if err != nil {
		return st, err
	}
	defer f.Close()
	if err := f.g.Deploy(natGraph("av", nffg.RedundancyActiveStandby)); err != nil {
		return st, err
	}
	pl, ok := f.g.Placement("av")
	if !ok {
		return st, fmt.Errorf("chaos: no placement recorded for graph av")
	}
	primary := pl.NFNode["nat"]
	standby := f.g.StandbyNode("av")
	if primary == "" || standby == "" || primary == standby {
		return st, fmt.Errorf("chaos: bad availability layout: primary %q standby %q", primary, standby)
	}
	conns, err := establishNATConns(f, primary, o.Conns)
	if err != nil {
		return st, err
	}
	if n := f.g.SyncStandbys(); n == 0 {
		return st, fmt.Errorf("chaos: standby sync replicated no flow state")
	}
	f.locals[primary].SetDown(true)
	t0 := time.Now()
	f.g.ReconcileOnce()
	st.reconverge = time.Since(t0)
	pl, _ = f.g.Placement("av")
	if got := pl.NFNode["nat"]; got != standby {
		return st, fmt.Errorf("chaos: NAT not re-homed to standby %q after node kill (on %q)", standby, got)
	}
	// Live traffic resumes on the promoted node; every binding the sync
	// replicated must still translate identically.
	return st, verifyNATConns(f, standby, conns, &st)
}

// runLinkSever cuts the direct inter-node link a deployed chain is
// stitched over; Unlink must re-place the graph across the surviving
// path through the middle node.
func runLinkSever(o *Options) (stats, error) {
	var st stats
	f, err := newFleet(o,
		[]nodeSpec{
			{name: "n1", ifaces: []string{"lan", "x12", "x13"}, cpuMillis: 4000},
			{name: "n2", ifaces: []string{"x12", "x23"}, cpuMillis: 4000},
			{name: "n3", ifaces: []string{"x13", "x23", "wan"}, cpuMillis: 4000},
		},
		[]linkSpec{
			{a: "n1", aIf: "x12", b: "n2", bIf: "x12"},
			{a: "n2", aIf: "x23", b: "n3", bIf: "x23"},
			{a: "n1", aIf: "x13", b: "n3", bIf: "x13"},
		})
	if err != nil {
		return st, err
	}
	defer f.Close()
	if err := f.g.Deploy(chainGraph("ch", 3)); err != nil {
		return st, err
	}
	// Pre-fault: the chain forwards end to end, payload intact.
	probe := testFrame(0x5a)
	st.sent++
	if err := f.send("n1", "lan", probe); err != nil {
		return st, err
	}
	got, ok := f.recv("n3", "wan")
	if !ok {
		return st, fmt.Errorf("chaos: chain dropped traffic before the fault")
	}
	st.received++
	if !bytes.Equal(got, probe) {
		st.stateLoss++
	}
	// Sever the direct n1-n3 link. Any stitch riding it is re-placed
	// synchronously inside Unlink; the n1-n2-n3 path remains.
	t0 := time.Now()
	if err := f.g.Unlink("n1", "x13", "n3", "x13"); err != nil {
		return st, err
	}
	st.reconverge = time.Since(t0)
	for i := 0; i < o.Conns; i++ {
		frame := testFrame(byte(i))
		st.sent++
		if err := f.send("n1", "lan", frame); err != nil {
			return st, err
		}
		got, ok := f.recv("n3", "wan")
		if !ok {
			continue
		}
		st.received++
		if !bytes.Equal(got, frame) {
			st.stateLoss++
		}
	}
	return st, nil
}

// faultTransport wraps a RoundTripper with injectable control-plane
// faults: a fixed added latency and a hard failure mode.
type faultTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	fail  bool
	delay time.Duration
}

func (ft *faultTransport) set(fail bool, delay time.Duration) {
	ft.mu.Lock()
	ft.fail, ft.delay = fail, delay
	ft.mu.Unlock()
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	fail, delay := ft.fail, ft.delay
	ft.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return nil, fmt.Errorf("chaos: injected REST failure for %s", req.URL.Path)
	}
	return ft.base.RoundTrip(req)
}

// runRESTFault drives a node through its real REST surface (the global
// tier's HTTPNode over an httptest server) and breaks the control plane
// out from under the fleet: first hard failures — the node is declared
// dead but its datapath must keep forwarding — then a healed-but-slow
// phase the reconcile pass must absorb without churning the graph.
func runRESTFault(o *Options) (stats, error) {
	var st stats
	node, err := un.NewNode(un.Config{
		Name:         "h1",
		Interfaces:   []string{"lan", "wan"},
		CPUMillis:    4000,
		RAMBytes:     1 << 30,
		Capabilities: nodeCaps,
	})
	if err != nil {
		return st, err
	}
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	ft := &faultTransport{base: http.DefaultTransport}
	client := &http.Client{Transport: ft, Timeout: 2 * time.Second}
	g := global.New(global.Config{Logf: o.Logf, ProbeInterval: 5 * time.Millisecond})
	if err := g.AddNode(global.NewHTTPNode("h1", srv.URL, client)); err != nil {
		return st, err
	}
	if err := g.Deploy(chainGraph("web", 2)); err != nil {
		return st, err
	}
	send := func(frame []byte) error {
		p, ok := node.InterfacePort("lan")
		if !ok {
			return fmt.Errorf("chaos: node h1 has no interface lan")
		}
		return p.Send(netdev.Frame{Data: frame})
	}
	recv := func() ([]byte, bool) {
		p, ok := node.InterfacePort("wan")
		if !ok {
			return nil, false
		}
		fr, got := p.TryRecv()
		return fr.Data, got
	}
	// Hard control-plane failure: the probe marks the node dead, but the
	// datapath is not the control plane — frames must keep flowing.
	ft.set(true, 0)
	g.ReconcileOnce()
	for i := 0; i < o.Conns; i++ {
		frame := testFrame(byte(i))
		st.sent++
		if err := send(frame); err != nil {
			return st, err
		}
		if got, ok := recv(); ok {
			st.received++
			if !bytes.Equal(got, frame) {
				st.stateLoss++
			}
		}
	}
	// Heal, but slowly: every REST call now pays an injected latency. One
	// reconcile pass must re-admit the node without redeploying anything.
	ft.set(false, 2*time.Millisecond)
	t0 := time.Now()
	g.ReconcileOnce()
	st.reconverge = time.Since(t0)
	if _, ok := g.Placement("web"); !ok {
		return st, fmt.Errorf("chaos: graph lost its placement across the REST outage")
	}
	ids := node.GraphIDs()
	found := false
	for _, id := range ids {
		if id == "web" {
			found = true
		}
	}
	if !found {
		return st, fmt.Errorf("chaos: node was churned during REST outage: graphs %v", ids)
	}
	st.sent++
	frame := testFrame(0xa5)
	if err := send(frame); err != nil {
		return st, err
	}
	if got, ok := recv(); ok {
		st.received++
		if !bytes.Equal(got, frame) {
			st.stateLoss++
		}
	}
	return st, nil
}
