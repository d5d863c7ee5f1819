package orchestrator

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netdev"
	"repro/internal/nffg"
	"repro/internal/repository"
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// packageNATForVM gives the node's NAT template a VM flavor, so a NAT set
// of several members has a technology to move to: the stock template ships
// docker and native only, and one graph can hold a single native NAT. The
// firewall's VM image stands in for the artifact; the VM driver builds the
// processor from the template name, not from the image.
func packageNATForVM(t *testing.T, o *Orchestrator) {
	t.Helper()
	tpl, ok := o.cfg.Repo.Lookup("nat")
	if !ok {
		t.Fatal("no nat template")
	}
	tpl.Flavors[nffg.TechVM] = repository.FlavorSpec{Image: "firewall:vm", CPUMillis: 500, Capability: "kvm"}
}

// checkSetInvariants asserts what must hold for one NF's set between any
// two transitions: nothing is draining, every bucket is owned by a running
// member in the running state, the graph LSI holds exactly the endpoints'
// ports plus the set's (no detached instance still wired), the node's
// nf-start/nf-stop counters balance to the live instances, and neither
// switch dropped a frame.
func checkSetInvariants(t *testing.T, o *Orchestrator, graphID, nfID, phase string) {
	t.Helper()
	d, ok := o.Graph(graphID)
	if !ok {
		t.Fatalf("%s: graph %q gone", phase, graphID)
	}
	o.mu.Lock()
	set, eps := *d.nfs[nfID], len(d.eps)
	o.mu.Unlock()
	if len(set.draining) != 0 {
		t.Errorf("%s: %d instance(s) still draining", phase, len(set.draining))
	}
	for b := range vswitch.NumStateBuckets {
		owner := set.owner(b)
		if owner < 0 || owner >= len(set.members) {
			t.Fatalf("%s: bucket %d owned by member %d of %d", phase, b, owner, len(set.members))
		}
		m := set.members[owner]
		if !m.inst.Runtime.Running() || m.State() != StateRunning {
			t.Fatalf("%s: bucket %d owned by %s (running=%v, state %s)",
				phase, b, m.inst.Name, m.inst.Runtime.Running(), m.State())
		}
	}
	wantPorts, live := eps, len(set.all())
	for _, att := range set.all() {
		wantPorts += len(att.lsiPorts)
	}
	if got := len(d.LSI().Ports()); got != wantPorts {
		t.Errorf("%s: graph LSI holds %d ports, want %d (endpoints + live instances)", phase, got, wantPorts)
	}
	if got := o.metrics.nfStarts.Value() - o.metrics.nfStops.Value(); got != uint64(live) {
		t.Errorf("%s: nf-start - nf-stop = %d, want %d live instances", phase, got, live)
	}
	if drops := d.LSI().Telemetry().Drops + o.LSI0().Telemetry().Drops; drops != 0 {
		t.Errorf("%s: %d frames dropped", phase, drops)
	}
}

// TestSetTransitions drives every reason an instance enters or leaves an
// NF's set — scale-up, scale-down, a flavor hot-swap of a multi-member set,
// a member crash repaired by re-homing, a member crash repaired by standby
// promotion with re-arm — against the SAME live NAT connections, and holds
// the same invariants after each: zero packet loss, zero binding loss, and
// checkSetInvariants.
func TestSetTransitions(t *testing.T) {
	o := newNode(t)
	packageNATForVM(t, o)
	if err := o.Deploy(natStandbyGraph("g")); err != nil {
		t.Fatal(err)
	}
	conns := establishNATConns(t, o, 48)
	checkSetInvariants(t, o, "g", "nat", "deployed")

	// A planned transition runs under a concurrent stream of the established
	// connections and must forward every frame of it; a crash loses what is
	// sent between the kill and the repair by definition, so those steps run
	// on a quiet datapath.
	lan, _ := o.InterfacePort("eth0")
	wan, _ := o.InterfacePort("eth1")
	underTraffic := func(op func() error) func() error {
		return func() error {
			var sent, received atomic.Uint64
			wan.SetHandler(func(netdev.Frame) { received.Add(1) })
			defer wan.SetHandler(nil)
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if lan.Send(netdev.Frame{Data: conns[i%len(conns)].outboundFrame(t)}) == nil {
						sent.Add(1)
					}
				}
			}()
			for received.Load() < 100 {
				time.Sleep(time.Millisecond)
			}
			err := op()
			close(stop)
			<-done
			if s, r := sent.Load(), received.Load(); s != r {
				return fmt.Errorf("sent %d frames during the transition, %d forwarded", s, r)
			}
			return err
		}
	}
	steps := []struct {
		name        string
		run         func() error
		members     int
		technology  nffg.Technology
		journalType string
	}{
		{"scale 1->3", underTraffic(func() error { return o.Scale("g", "nat", 3) }), 3, nffg.TechDocker, telemetry.EventScale},
		{"scale 3->2", underTraffic(func() error { return o.Scale("g", "nat", 2) }), 2, nffg.TechDocker, telemetry.EventScale},
		{"reflavor 2 members", underTraffic(func() error { return o.Reflavor("g", "nat", nffg.TechVM) }), 2, nffg.TechVM, telemetry.EventReflavor},
		{"kill member 1, re-home", func() error {
			o.ReplicaInstances("g", "nat")[1].Runtime.Stop()
			_, err := o.RepairReplicas("g", "nat")
			return err
		}, 1, nffg.TechVM, telemetry.EventScale},
		{"kill member 0, promote standby", func() error {
			o.SyncStandbys()
			if err := o.KillNF("g", "nat"); err != nil {
				return err
			}
			return o.RepairNF("g", "nat")
		}, 1, nffg.TechDocker, telemetry.EventPromote},
	}
	for _, step := range steps {
		before := len(journalDetails(o, step.journalType))
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		insts := o.ReplicaInstances("g", "nat")
		if len(insts) != step.members {
			t.Fatalf("%s: %d members, want %d", step.name, len(insts), step.members)
		}
		for _, inst := range insts {
			if inst.Technology != step.technology {
				t.Fatalf("%s: member %s runs as %s, want %s", step.name, inst.Name, inst.Technology, step.technology)
			}
		}
		if sb := o.StandbyNFs("g"); len(sb) != 1 {
			t.Fatalf("%s: standby not kept (or not re-armed): %v", step.name, sb)
		}
		if len(journalDetails(o, step.journalType)) != before+1 {
			t.Errorf("%s: no %s event journaled", step.name, step.journalType)
		}
		verifyNATConns(t, o, conns, step.name)
		checkSetInvariants(t, o, "g", "nat", step.name)
	}

	if err := o.Undeploy("g"); err != nil {
		t.Fatal(err)
	}
	if starts, stops := o.metrics.nfStarts.Value(), o.metrics.nfStops.Value(); starts != stops {
		t.Fatalf("after undeploy: %d nf-starts vs %d nf-stops", starts, stops)
	}
	if used, _, _, _ := o.Usage(); used != 0 {
		t.Fatalf("after undeploy: %d CPU millicores still charged", used)
	}
}

// TestReflavorMovesEveryMember: reflavoring a scaled NF is a transition to a
// set of the same size in the new technology — every member moves, not just
// the first — and a reflavor that cannot complete leaves the old set
// serving. At the parent commit only replica 0 moved while Topology reported
// the new technology for the whole NF.
func TestReflavorMovesEveryMember(t *testing.T) {
	o := newNode(t)
	packageNATForVM(t, o)
	if err := o.Deploy(natGraph("g", 3)); err != nil {
		t.Fatal(err)
	}
	conns := establishNATConns(t, o, 48)
	if err := o.Reflavor("g", "nat", nffg.TechVM); err != nil {
		t.Fatal(err)
	}
	checkTech := func(phase string, want nffg.Technology) {
		t.Helper()
		insts := o.ReplicaInstances("g", "nat")
		if len(insts) != 3 {
			t.Fatalf("%s: %d members, want 3", phase, len(insts))
		}
		for i, inst := range insts {
			if inst.Technology != want {
				t.Errorf("%s: member %d runs as %s, want %s", phase, i, inst.Technology, want)
			}
		}
		if got := o.Topology().Graphs[0].NFs[0].Technology; got != string(want) {
			t.Errorf("%s: topology reports %s, want %s", phase, got, want)
		}
		verifyNATConns(t, o, conns, phase)
		checkSetInvariants(t, o, "g", "nat", phase)
	}
	checkTech("after reflavor to vm", nffg.TechVM)

	// One graph can hold a single native NAT, so a three-member set cannot
	// go native: the attempt must fail as a whole and change nothing.
	if err := o.Reflavor("g", "nat", nffg.TechNative); err == nil {
		t.Fatal("reflavoring three members onto a one-per-graph native NF succeeded")
	}
	checkTech("after failed reflavor to native", nffg.TechVM)

	// Whatever joins the set later clones the set's technology.
	if err := o.Scale("g", "nat", 4); err != nil {
		t.Fatal(err)
	}
	if tech := o.ReplicaInstances("g", "nat")[3].Technology; tech != nffg.TechVM {
		t.Fatalf("member added after the reflavor runs as %s, want vm", tech)
	}
}

// TestPromotedStandbyRunsUpdatedConfig: a graph update that changes an NF's
// configuration reaches the standby as well as the members, whichever way
// the update applies it — so a later promotion cannot put the pre-update
// configuration in service. At the parent commit neither path touched the
// standby: the in-place case below put the old firewall rules in service
// (the restart case was masked by the promotion's state salvage, which
// carries the member's SA over).
func TestPromotedStandbyRunsUpdatedConfig(t *testing.T) {
	t.Run("reconfigured in place", func(t *testing.T) {
		o := newNode(t)
		spec := func(rules string) *nffg.Graph {
			g := firewallGraph("g", 100, rules)
			g.NFs[0].TechnologyPreference = nffg.TechDocker
			g.NFs[0].Redundancy = nffg.RedundancyActiveStandby
			return g
		}
		if err := o.Deploy(spec("")); err != nil {
			t.Fatal(err)
		}
		if err := o.Update(spec("drop proto=udp dport=53")); err != nil {
			t.Fatal(err)
		}
		if got := journalDetails(o, telemetry.EventNFConfig); len(got) != 1 || !strings.Contains(got[0], "in place") {
			t.Fatalf("config journal = %v, want one in-place entry", got)
		}
		if err := o.KillNF("g", "fw"); err != nil {
			t.Fatal(err)
		}
		if err := o.RepairNF("g", "fw"); err != nil {
			t.Fatal(err)
		}
		send(t, o, "eth0", vlanFrame(t, 100, 53))
		if _, ok := recv(t, o, "eth1"); ok {
			t.Fatal("promoted standby passes DNS: it runs the pre-update rules")
		}
		send(t, o, "eth0", vlanFrame(t, 100, 80))
		if _, ok := recv(t, o, "eth1"); !ok {
			t.Fatal("promoted standby drops traffic the rules allow")
		}
	})
	t.Run("restarted", func(t *testing.T) {
		o := newNode(t)
		spec := func(spi string) *nffg.Graph {
			g := ipsecGraph("g", nffg.TechDocker)
			g.NFs[0].Redundancy = nffg.RedundancyActiveStandby
			g.NFs[0].Config["spi"] = spi
			return g
		}
		if err := o.Deploy(spec("4096")); err != nil {
			t.Fatal(err)
		}
		if err := o.Update(spec("8192")); err != nil {
			t.Fatal(err)
		}
		if sb := o.StandbyNFs("g"); len(sb) != 1 {
			t.Fatalf("standby lost by the config restart: %v", sb)
		}
		if err := o.KillNF("g", "vpn"); err != nil {
			t.Fatal(err)
		}
		if err := o.RepairNF("g", "vpn"); err != nil {
			t.Fatal(err)
		}
		send(t, o, "eth0", clearFrame(t))
		wire, ok := recv(t, o, "eth1")
		if !ok {
			t.Fatal("chain broken after promotion")
		}
		if spi := fmt.Sprintf("%x", wire[14+20:14+24]); spi != "00002000" {
			t.Fatalf("promoted standby sends SPI %s, want 00002000 (8192): it runs the pre-update config", spi)
		}
	})
}

// TestConfigRestartKeepsEverySetInstance: the config-restart fallback of a
// set with more than one instance brings each of them back in the
// technology it ran in. Asking the policy once and launching its answer
// for the whole set lost the NF where that answer hosts a single instance
// per graph (the native ipsec): the second start failed, and so did the
// restore of the previous spec.
func TestConfigRestartKeepsEverySetInstance(t *testing.T) {
	respi := func(t *testing.T, o *Orchestrator, g *nffg.Graph, members []nffg.Technology, standbys int) {
		t.Helper()
		g.NFs[0].Config["spi"] = "8192"
		if err := o.Update(g); err != nil {
			t.Fatal(err)
		}
		insts := o.ReplicaInstances("g", "vpn")
		if len(insts) != len(members) {
			t.Fatalf("%d member(s) after the restart, want %d", len(insts), len(members))
		}
		for i, inst := range insts {
			if inst.Technology != members[i] {
				t.Errorf("member %d restarted as %s, want %s", i, inst.Technology, members[i])
			}
		}
		if sb := o.StandbyNFs("g"); len(sb) != standbys {
			t.Fatalf("standbys after the restart: %v, want %d", sb, standbys)
		}
		checkSetInvariants(t, o, "g", "vpn", "after config restart")
		send(t, o, "eth0", clearFrame(t))
		wire, ok := recv(t, o, "eth1")
		if !ok {
			t.Fatal("chain broken after config restart")
		}
		if spi := fmt.Sprintf("%x", wire[14+20:14+24]); spi != "00002000" {
			t.Fatalf("wire SPI %s, want 00002000 (8192)", spi)
		}
	}
	t.Run("active-standby across technologies", func(t *testing.T) {
		o := newNode(t)
		g := ipsecGraph("g", nffg.TechAny)
		g.NFs[0].Redundancy = nffg.RedundancyActiveStandby
		if err := o.Deploy(g); err != nil {
			t.Fatal(err)
		}
		// One graph holds one native ipsec, so the standby sits elsewhere.
		if tech := o.ReplicaInstances("g", "vpn")[0].Technology; tech != nffg.TechNative {
			t.Fatalf("member deployed as %s, want native", tech)
		}
		respi(t, o, g.Clone(), []nffg.Technology{nffg.TechNative}, 1)
	})
	t.Run("scaled after a reflavor", func(t *testing.T) {
		o := newNode(t)
		g := ipsecGraph("g", nffg.TechAny)
		if err := o.Deploy(g); err != nil {
			t.Fatal(err)
		}
		if err := o.Reflavor("g", "vpn", nffg.TechDocker); err != nil {
			t.Fatal(err)
		}
		if err := o.Scale("g", "vpn", 2); err != nil {
			t.Fatal(err)
		}
		g = g.Clone()
		g.NFs[0].Replicas = 2
		respi(t, o, g, []nffg.Technology{nffg.TechDocker, nffg.TechDocker}, 0)
	})
}

// TestStandbyJoinsInSetTechnology: a standby is placed in its set's
// technology, not where the policy would put a first instance — so a
// promotion does not silently move the NF — except where that technology
// cannot host a second instance.
func TestStandbyJoinsInSetTechnology(t *testing.T) {
	standbyTech := func(o *Orchestrator) nffg.Technology {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.graphs["g"].nfs["vpn"].standby.inst.Technology
	}
	o := newNode(t)
	g := ipsecGraph("g", nffg.TechAny)
	g.NFs[0].Redundancy = nffg.RedundancyActiveStandby
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	if member, sb := o.ReplicaInstances("g", "vpn")[0].Technology, standbyTech(o); member != nffg.TechNative || sb == nffg.TechNative {
		t.Fatalf("member %s, standby %s: want a native member and the standby elsewhere (one native ipsec per graph)", member, sb)
	}
	// Moved to docker, the set re-arms in docker although the policy's
	// first choice — native — is free again.
	if err := o.Reflavor("g", "vpn", nffg.TechDocker); err != nil {
		t.Fatal(err)
	}
	if err := o.KillNF("g", "vpn"); err != nil {
		t.Fatal(err)
	}
	if err := o.RepairNF("g", "vpn"); err != nil {
		t.Fatal(err)
	}
	if sb := standbyTech(o); sb != nffg.TechDocker {
		t.Fatalf("re-armed standby runs as %s, want docker like its set", sb)
	}
	checkSetInvariants(t, o, "g", "vpn", "after promote and re-arm")
}
