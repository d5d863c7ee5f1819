package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
)

// haRig is a replicated control plane over one shared Universal Node:
// three orchestrator replicas clustered over the in-process transport
// (lease-based leader election, replicated intent log), all
// resolving node names to the same in-process handles. Cluster faults —
// replica crashes and network partitions — are injected through the
// LocalNetwork; the node and its datapath never stop, which is exactly
// what lets the scenarios assert that control-plane failover costs the
// data plane nothing.
type haRig struct {
	f        *fleet
	net      *cluster.LocalNetwork
	orchs    map[string]*global.Orchestrator
	clusters map[string]*cluster.Cluster
	ids      []string
	undo     []func()
}

// haNode is the single Universal Node the replicated control plane
// manages. eth0/eth1 carry the NAT under test; lan/wan host the chain
// graphs the scenarios deploy to prove a leader accepts writes.
const haNode = "n1"

// haProbe is each replica's global ProbeInterval: the reconcile period in
// which a leader notices a dead node.
const haProbe = 5 * time.Millisecond

func newHARig(o *Options, replicas int) (*haRig, error) {
	node, err := un.NewNode(un.Config{
		Name:         haNode,
		Interfaces:   []string{"eth0", "eth1", "lan", "wan"},
		CPUMillis:    8000,
		RAMBytes:     1 << 30,
		Capabilities: nodeCaps,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: node %q: %w", haNode, err)
	}
	r := &haRig{
		f: &fleet{
			nodes:  map[string]*un.Node{haNode: node},
			locals: map[string]*global.LocalNode{haNode: global.NewLocalNode(haNode, node)},
		},
		net:      cluster.NewLocalNetwork(),
		orchs:    make(map[string]*global.Orchestrator),
		clusters: make(map[string]*cluster.Cluster),
	}
	r.undo = append(r.undo, node.Close)
	resolver := func(name string, _ json.RawMessage) (global.Node, error) {
		ln, ok := r.f.locals[name]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown node %q", name)
		}
		return ln, nil
	}
	var peers []cluster.PeerSpec
	for i := 0; i < replicas; i++ {
		id := fmt.Sprintf("r%d", i+1)
		r.ids = append(r.ids, id)
		peers = append(peers, cluster.PeerSpec{ID: id, Addr: "http://" + id})
	}
	for _, id := range r.ids {
		og := global.New(global.Config{Logf: o.Logf, ProbeInterval: haProbe})
		c, err := global.BuildHA(og, cluster.Options{
			ID:                id,
			ClusterID:         "chaos",
			Peers:             peers,
			Transport:         r.net.Transport(id),
			HeartbeatInterval: 10 * time.Millisecond,
			LeaseDuration:     120 * time.Millisecond,
			CommitTimeout:     time.Second,
		}, resolver)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("chaos: replica %q: %w", id, err)
		}
		r.net.Register(id, c)
		r.orchs[id] = og
		r.clusters[id] = c
	}
	for _, id := range r.ids { // as un-global starts, and stops, a replica
		r.orchs[id].Start()
		r.clusters[id].Start()
		r.undo = append(r.undo, r.orchs[id].Close, r.clusters[id].Close)
	}
	return r, nil
}

func (r *haRig) Close() {
	for i := len(r.undo) - 1; i >= 0; i-- {
		r.undo[i]()
	}
}

// leader returns the replica currently holding the lease, or "".
func (r *haRig) leader() string {
	for _, id := range r.ids {
		if r.clusters[id].IsLeader() {
			return id
		}
	}
	return ""
}

// waitLeader blocks until some replica other than exclude holds the
// lease (pass "" to accept any leader).
func (r *haRig) waitLeader(timeout time.Duration, exclude string) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if id := r.leader(); id != "" && id != exclude {
			return id, nil
		}
		time.Sleep(time.Millisecond)
	}
	return "", fmt.Errorf("chaos: no leader elected within %v (excluding %q)", timeout, exclude)
}

// waitIntent blocks until the replica's orchestrator holds exactly the
// wanted graph set — promotion replay and follower refresh both land
// asynchronously relative to the lease flip.
func (r *haRig) waitIntent(id string, timeout time.Duration, follower bool, want ...string) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if follower {
			// Followers refresh from the replicated store on their
			// reconcile tick; drive it directly here.
			r.orchs[id].ReconcileOnce()
		}
		got := r.orchs[id].GraphIDs()
		if len(got) == len(want) {
			match := true
			for i := range want {
				if got[i] != want[i] {
					match = false
					break
				}
			}
			if match {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("chaos: replica %s did not converge on graphs %v (has %v)",
		id, want, r.orchs[id].GraphIDs())
}

// runHALeaderKill is the HA acceptance scenario: three control-plane
// replicas manage one node carrying live NAT traffic; the leader crashes
// mid-lease. A follower must win the election, replay the replicated
// intent store into a byte-identical desired state, adopt the running
// datapath without churning it (every NAT binding intact), and start
// accepting writes — while the deposed replica fences itself.
func runHALeaderKill(o *Options) (stats, error) {
	var st stats
	r, err := newHARig(o, 3)
	if err != nil {
		return st, err
	}
	defer r.Close()
	lead, err := r.waitLeader(5*time.Second, "")
	if err != nil {
		return st, err
	}
	if err := r.orchs[lead].AddNode(r.f.locals[haNode]); err != nil {
		return st, err
	}
	if err := r.orchs[lead].Deploy(natGraph("ha", "")); err != nil {
		return st, err
	}
	conns, err := establishNATConns(r.f, haNode, o.Conns)
	if err != nil {
		return st, err
	}
	// Crash the leader: it drops off the fabric mid-lease with live
	// connections pinned through the NAT it placed.
	r.net.SetDown(lead, true)
	t0 := time.Now()
	succ, err := r.waitLeader(5*time.Second, lead)
	if err != nil {
		return st, err
	}
	// Reconvergence counts until the successor holds the full intent —
	// a lease without the replayed desired state is not a control plane.
	if err := r.waitIntent(succ, 2*time.Second, false, "ha"); err != nil {
		return st, err
	}
	st.reconverge = time.Since(t0)
	if _, ok := r.orchs[succ].Placement("ha"); !ok {
		return st, fmt.Errorf("chaos: successor %s replayed intent without a placement", succ)
	}
	// The deposed leader fences itself once its lease expires: even
	// though it never saw the new election, it must refuse writes.
	fenceDeadline := time.Now().Add(2 * time.Second)
	for r.clusters[lead].IsLeader() && time.Now().Before(fenceDeadline) {
		time.Sleep(time.Millisecond)
	}
	if r.clusters[lead].IsLeader() {
		return st, fmt.Errorf("chaos: deposed leader %s still claims the lease", lead)
	}
	if err := r.orchs[lead].Deploy(chainGraph("fenced", 1)); !errors.Is(err, global.ErrNotLeader) {
		return st, fmt.Errorf("chaos: deposed leader %s accepted a write: %v", lead, err)
	}
	// The successor is a real leader: it accepts new intent.
	if err := r.orchs[succ].Deploy(chainGraph("post", 2)); err != nil {
		return st, fmt.Errorf("chaos: promoted leader %s rejected a write: %w", succ, err)
	}
	// Promotion adopted the running fleet instead of redeploying it, so
	// every binding established under the old leader still translates.
	return st, verifyNATConns(r.f, haNode, conns, &st)
}

// runHALeaderPartition splits the leader from both followers without
// killing it. The majority side must elect a successor and keep taking
// writes; the isolated ex-leader must fence itself on lease expiry and
// refuse mutations (no split brain); and once the partition heals it
// must rejoin as a follower and converge on the majority's intent.
func runHALeaderPartition(o *Options) (stats, error) {
	var st stats
	r, err := newHARig(o, 3)
	if err != nil {
		return st, err
	}
	defer r.Close()
	lead, err := r.waitLeader(5*time.Second, "")
	if err != nil {
		return st, err
	}
	if err := r.orchs[lead].AddNode(r.f.locals[haNode]); err != nil {
		return st, err
	}
	if err := r.orchs[lead].Deploy(natGraph("hp", "")); err != nil {
		return st, err
	}
	conns, err := establishNATConns(r.f, haNode, o.Conns)
	if err != nil {
		return st, err
	}
	r.net.Isolate(lead)
	t0 := time.Now()
	succ, err := r.waitLeader(5*time.Second, lead)
	if err != nil {
		return st, err
	}
	if err := r.waitIntent(succ, 2*time.Second, false, "hp"); err != nil {
		return st, err
	}
	st.reconverge = time.Since(t0)
	// Fencing: the partitioned ex-leader is still running, but its lease
	// has expired unrenewed — it must step down and refuse writes even
	// though it cannot know a successor exists.
	fenceDeadline := time.Now().Add(2 * time.Second)
	for r.clusters[lead].IsLeader() && time.Now().Before(fenceDeadline) {
		time.Sleep(time.Millisecond)
	}
	if r.clusters[lead].IsLeader() {
		return st, fmt.Errorf("chaos: partitioned leader %s still claims the lease", lead)
	}
	if err := r.orchs[lead].Undeploy("hp"); !errors.Is(err, global.ErrNotLeader) {
		return st, fmt.Errorf("chaos: partitioned ex-leader %s accepted a write: %v", lead, err)
	}
	// The majority side keeps serving: new intent lands on the successor
	// while the old leader is still cut off.
	if err := r.orchs[succ].Deploy(chainGraph("maj", 2)); err != nil {
		return st, fmt.Errorf("chaos: majority leader %s rejected a write: %w", succ, err)
	}
	// Heal. The deposed replica must come back as a follower and catch
	// up on everything committed while it was away.
	r.net.Rejoin(lead)
	rejoinDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(rejoinDeadline) {
		if id, _ := r.clusters[lead].Leader(); id == succ {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if id, _ := r.clusters[lead].Leader(); id != succ {
		return st, fmt.Errorf("chaos: rejoined replica %s follows %q, want %q", lead, id, succ)
	}
	if err := r.waitIntent(lead, 2*time.Second, true, "hp", "maj"); err != nil {
		return st, err
	}
	return st, verifyNATConns(r.f, haNode, conns, &st)
}

// ElectionSoak cycles a 3-replica cluster through repeated leader kills
// and revivals, returning the measured failover time of each cycle (the
// gap between the crash and a successor holding the lease). The nightly
// job runs this for many cycles and publishes the median; a creeping
// median is an election-latency regression no single chaos pass catches.
func ElectionSoak(cycles int, logf func(format string, args ...any)) ([]time.Duration, error) {
	o := &Options{Logf: logf}
	r, err := newHARig(o, 3)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if _, err := r.waitLeader(5*time.Second, ""); err != nil {
		return nil, err
	}
	times := make([]time.Duration, 0, cycles)
	for i := 0; i < cycles; i++ {
		lead, err := r.waitLeader(5*time.Second, "")
		if err != nil {
			return times, fmt.Errorf("chaos: cycle %d: %w", i+1, err)
		}
		r.net.SetDown(lead, true)
		t0 := time.Now()
		succ, err := r.waitLeader(5*time.Second, lead)
		if err != nil {
			return times, fmt.Errorf("chaos: cycle %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0))
		if logf != nil {
			logf("chaos: election cycle %d: %s -> %s in %v", i+1, lead, succ, times[i])
		}
		// Revive the old leader and wait for it to find the cluster
		// again, so every cycle starts from full strength.
		r.net.SetDown(lead, false)
		reviveDeadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(reviveDeadline) {
			if id, _ := r.clusters[lead].Leader(); id != "" {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return times, nil
}
