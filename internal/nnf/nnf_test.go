package nnf

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/netns"
	"repro/internal/nf"
	"repro/internal/pkt"
)

var (
	macA = pkt.MAC{2, 0, 0, 0, 0, 0xa}
	macB = pkt.MAC{2, 0, 0, 0, 0, 0xb}
	ipA  = pkt.Addr{10, 0, 0, 1}
	ipB  = pkt.Addr{10, 0, 0, 2}
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	return NewManager(Builtins(), netns.NewRegistry(), execenv.Default(), nil)
}

func taggedFrame(t *testing.T, vlan uint16, dport uint16) []byte {
	t.Helper()
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, VLANID: vlan,
		SrcIP: ipA, DstIP: ipB, SrcPort: 1000, DstPort: dport, PayloadLen: 32,
	})
}

// --- MarkAllocator ---

func TestMarkAllocator(t *testing.T) {
	a := NewMarkAllocator()
	m1, err := a.Alloc()
	if err != nil || m1 != MarkPoolStart {
		t.Fatalf("first mark = %d, %v", m1, err)
	}
	m2, _ := a.Alloc()
	if m2 == m1 {
		t.Error("duplicate mark")
	}
	a.Free(m1)
	m3, _ := a.Alloc()
	if m3 != m1 {
		t.Errorf("freed mark not reused: %d", m3)
	}
	if a.InUse() != 2 {
		t.Errorf("InUse = %d", a.InUse())
	}
	a.Free(9999) // not allocated: ignored
	if a.InUse() != 2 {
		t.Error("bogus free changed accounting")
	}
}

func TestMarkAllocatorExhaustionAndAllocN(t *testing.T) {
	a := NewMarkAllocator()
	total := int(MarkPoolEnd-MarkPoolStart) + 1
	marks, err := a.AllocN(total)
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != total {
		t.Fatalf("allocated %d", len(marks))
	}
	if _, err := a.Alloc(); err == nil {
		t.Error("exhausted pool still allocating")
	}
	// AllocN must roll back on partial failure.
	a.Free(marks[0])
	if _, err := a.AllocN(2); err == nil {
		t.Error("AllocN(2) with 1 free mark succeeded")
	}
	if a.InUse() != total-1 {
		t.Errorf("rollback leaked marks: in use %d, want %d", a.InUse(), total-1)
	}
}

// --- Adapter ---

func TestAdapterDemultiplexesMarks(t *testing.T) {
	fw := nf.NewFirewall()
	ad := NewAdapter(fw)
	// Graph 1: ingress mark 3000 -> inner port 0, egress marks 3002/3003.
	if err := ad.AddPath(3000, AdapterPath{InnerPort: 0, EgressMarks: []uint16{3002, 3003}}); err != nil {
		t.Fatal(err)
	}
	if err := ad.AddPath(3001, AdapterPath{InnerPort: 1, EgressMarks: []uint16{3002, 3003}}); err != nil {
		t.Fatal(err)
	}
	res, err := ad.Process(0, taggedFrame(t, 3000, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 0 {
		t.Fatalf("emissions = %+v", res.Emissions)
	}
	// Firewall forwards port0 -> port1, so the egress mark must be 3003.
	if got, ok := vlanID(res.Emissions[0].Frame); !ok || got != 3003 {
		t.Errorf("egress mark = %d, want 3003", got)
	}
	// Reverse direction.
	res, _ = ad.Process(0, taggedFrame(t, 3001, 80))
	if got, _ := vlanID(res.Emissions[0].Frame); got != 3002 {
		t.Errorf("reverse egress mark = %d, want 3002", got)
	}
}

func TestAdapterDropsUnmappedTraffic(t *testing.T) {
	ad := NewAdapter(nf.NewFirewall())
	// Untagged.
	res, err := ad.Process(0, taggedFrame(t, 0, 80))
	if err != nil || len(res.Emissions) != 0 {
		t.Error("untagged frame not dropped")
	}
	// Unknown mark.
	res, _ = ad.Process(0, taggedFrame(t, 3500, 80))
	if len(res.Emissions) != 0 {
		t.Error("unknown mark not dropped")
	}
	if ad.unknownMarkDrops() != 2 {
		t.Errorf("drops = %d", ad.unknownMarkDrops())
	}
	if _, err := ad.Process(1, taggedFrame(t, 3000, 80)); err == nil {
		t.Error("second port accepted on single-interface adapter")
	}
}

func TestAdapterPathValidation(t *testing.T) {
	ad := NewAdapter(nf.NewFirewall())
	if err := ad.AddPath(0, AdapterPath{}); err == nil {
		t.Error("mark 0 accepted")
	}
	if err := ad.AddPath(5000, AdapterPath{}); err == nil {
		t.Error("mark > 4094 accepted")
	}
	if err := ad.AddPath(3000, AdapterPath{InnerPort: 0, EgressMarks: []uint16{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := ad.AddPath(3000, AdapterPath{InnerPort: 1, EgressMarks: []uint16{1, 2}}); err == nil {
		t.Error("duplicate mark accepted")
	}
	ad.RemovePath(3000)
	if ad.numPaths() != 0 {
		t.Error("RemovePath failed")
	}
}

// --- Plugin ---

func TestPluginLifecycleLog(t *testing.T) {
	p := Builtins()["firewall"]
	proc, err := p.Create("fw-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Configure("fw-1", proc, map[string]string{"default": "drop"}); err != nil {
		t.Fatal(err)
	}
	p.Destroy("fw-1")
	log := p.Log()
	if len(log) != 3 ||
		!strings.HasPrefix(log[0], "create fw-1") ||
		!strings.HasPrefix(log[1], "update fw-1") ||
		!strings.HasPrefix(log[2], "stop fw-1") {
		t.Errorf("log = %v", log)
	}
	// The trail is a bounded window: a plugin outlives every instance.
	for i := 0; i < 2*pluginLogLen; i++ {
		p.Destroy(fmt.Sprintf("fw-%d", i))
	}
	log = p.Log()
	if last := fmt.Sprintf("stop fw-%d", 2*pluginLogLen-1); len(log) != pluginLogLen || log[len(log)-1] != last {
		t.Errorf("after %d more entries: %d kept, last %q, want %d ending in %q",
			2*pluginLogLen, len(log), log[len(log)-1], pluginLogLen, last)
	}
}

func TestPluginValidation(t *testing.T) {
	if _, err := NewPlugin("", Traits{Ports: 1}, nf.NewFirewallFromConfig, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewPlugin("x", Traits{Ports: 0}, nf.NewFirewallFromConfig, nil); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := NewPlugin("x", Traits{Ports: 1, Sharable: true}, nf.NewFirewallFromConfig, nil); err == nil {
		t.Error("sharable plugin without paths accepted")
	}
}

func TestBuiltinsTraits(t *testing.T) {
	b := Builtins()
	if !b["firewall"].Traits().Sharable || b["firewall"].Traits().MaxInstances != 1 {
		t.Error("firewall must be a sharable singleton (iptables)")
	}
	if b["ipsec"].Traits().Sharable || b["ipsec"].Traits().MaxInstances != 1 {
		t.Error("ipsec must be an exclusive singleton (kernel XFRM)")
	}
	if b["bridge"].Traits().MaxInstances != 0 {
		t.Error("bridge must allow many instances")
	}
}

// --- Manager ---

func ipsecConfig() map[string]string {
	return map[string]string{
		"local":  "192.0.2.1",
		"remote": "203.0.113.9",
		"spi":    "4096",
		"key":    "000102030405060708090a0b0c0d0e0f10111213",
	}
}

func TestManagerExclusiveSingleton(t *testing.T) {
	m := newManager(t)
	att, err := m.Acquire("graph-1", "ipsec", ipsecConfig())
	if err != nil {
		t.Fatal(err)
	}
	if att.Shared || att.Runtime.NumPorts() != 2 {
		t.Errorf("ipsec attachment = %+v", att)
	}
	if !att.Runtime.Running() {
		t.Error("runtime not started")
	}
	// Second graph: busy.
	if _, err := m.Acquire("graph-2", "ipsec", ipsecConfig()); !errors.Is(err, ErrBusy) {
		t.Errorf("err = %v, want ErrBusy", err)
	}
	if m.CanAcquire("graph-2", "ipsec") {
		t.Error("CanAcquire says yes for busy exclusive NNF")
	}
	// Release frees it.
	if err := m.Release("graph-1", "ipsec"); err != nil {
		t.Fatal(err)
	}
	if !m.CanAcquire("graph-2", "ipsec") {
		t.Error("released NNF still busy")
	}
	if att.Runtime.Running() {
		t.Error("runtime still running after last release")
	}
}

func TestManagerSharableSingleton(t *testing.T) {
	m := newManager(t)
	a1, err := m.Acquire("graph-1", "firewall", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Shared || len(a1.InMarks) != 2 || len(a1.OutMarks) != 2 {
		t.Fatalf("attachment = %+v", a1)
	}
	if a1.Runtime.NumPorts() != 1 {
		t.Error("shared NNF must expose a single adapted port")
	}
	// Second graph joins the same instance with different marks.
	a2, err := m.Acquire("graph-2", "firewall", map[string]string{"rules": "drop proto=udp dport=53"})
	if err != nil {
		t.Fatal(err)
	}
	if a2.InstanceName != a1.InstanceName {
		t.Error("second graph got a second instance of a singleton")
	}
	if a2.InMarks[0] == a1.InMarks[0] {
		t.Error("mark collision between graphs")
	}
	insts := m.Instances("firewall")
	if len(insts) != 1 || len(insts[0].Users()) != 2 {
		t.Errorf("instances = %+v", insts)
	}
	// 8 marks: 2 graphs x (2 in + 2 out).
	if m.marksInUse() != 8 {
		t.Errorf("marks in use = %d", m.marksInUse())
	}
	// Release graph-1: instance survives for graph-2.
	if err := m.Release("graph-1", "firewall"); err != nil {
		t.Fatal(err)
	}
	if len(m.Instances("firewall")) != 1 {
		t.Error("instance destroyed while still used")
	}
	if m.marksInUse() != 4 {
		t.Errorf("marks not freed: %d", m.marksInUse())
	}
	_ = m.Release("graph-2", "firewall")
	if len(m.Instances("firewall")) != 0 {
		t.Error("instance leaked")
	}
	if m.marksInUse() != 0 {
		t.Error("marks leaked")
	}
}

func TestManagerSharedTrafficIsolation(t *testing.T) {
	// End-to-end through the runtime: two graphs share the firewall; graph
	// B drops DNS, graph A accepts it. Same packet, different marks,
	// different fates.
	m := newManager(t)
	a1, err := m.Acquire("gA", "firewall", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Acquire("gB", "firewall", map[string]string{"rules": "drop proto=udp dport=53", "default": "accept"})
	if err != nil {
		t.Fatal(err)
	}
	lsi := netdev.NewPort("lsi-side")
	if err := netdev.Connect(lsi, a1.Runtime.Port(0)); err != nil {
		t.Fatal(err)
	}

	// Graph A's DNS passes and comes back with A's egress mark.
	if err := lsi.Send(netdev.Frame{Data: taggedFrame(t, a1.InMarks[0], 53)}); err != nil {
		t.Fatal(err)
	}
	f, ok := lsi.TryRecv()
	if !ok {
		t.Fatal("graph A traffic dropped")
	}
	if mk, _ := vlanID(f.Data); mk != a1.OutMarks[1] {
		t.Errorf("egress mark = %d, want %d", mk, a1.OutMarks[1])
	}
	// Graph B's DNS is dropped by its isolated path.
	_ = lsi.Send(netdev.Frame{Data: taggedFrame(t, a2.InMarks[0], 53)})
	if _, ok := lsi.TryRecv(); ok {
		t.Error("graph B DNS leaked through")
	}
	// Graph B's HTTP passes.
	_ = lsi.Send(netdev.Frame{Data: taggedFrame(t, a2.InMarks[0], 80)})
	if _, ok := lsi.TryRecv(); !ok {
		t.Error("graph B HTTP dropped")
	}
}

func TestManagerMultiInstancePlugins(t *testing.T) {
	m := newManager(t)
	a1, err := m.Acquire("g1", "bridge", nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Acquire("g2", "bridge", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1.InstanceName == a2.InstanceName {
		t.Error("multi-instance plugin shared an instance")
	}
	if len(m.Instances("bridge")) != 2 {
		t.Error("expected two bridge instances")
	}
}

func TestManagerNamespaces(t *testing.T) {
	reg := netns.NewRegistry()
	m := NewManager(Builtins(), reg, execenv.Default(), nil)
	att, err := m.Acquire("g1", "ipsec", ipsecConfig())
	if err != nil {
		t.Fatal(err)
	}
	nsName := "nnf-" + att.InstanceName
	ns, err := reg.Get(nsName)
	if err != nil {
		t.Fatalf("NNF namespace missing: %v", err)
	}
	if len(ns.Devices()) != 2 {
		t.Errorf("namespace devices = %v", ns.Devices())
	}
	_ = m.Release("g1", "ipsec")
	if _, err := reg.Get(nsName); err == nil {
		t.Error("namespace survived release")
	}
}

func TestManagerErrors(t *testing.T) {
	m := newManager(t)
	if _, err := m.Acquire("g", "ghost", nil); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v", err)
	}
	if err := m.Release("g", "ghost"); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v", err)
	}
	if err := m.Release("g", "ipsec"); err == nil {
		t.Error("release without acquire allowed")
	}
	if _, err := m.Acquire("g", "ipsec", map[string]string{}); err == nil {
		t.Error("bad config accepted")
	}
	// Failed create must not leak namespaces or instances.
	if len(m.Instances("ipsec")) != 0 {
		t.Error("failed acquire leaked an instance")
	}
	// Double acquire by the same graph.
	if _, err := m.Acquire("g", "firewall", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire("g", "firewall", nil); err == nil {
		t.Error("double acquire allowed")
	}
}

func TestManagerRAMAccounting(t *testing.T) {
	m := newManager(t)
	if m.totalRAM() != 0 {
		t.Error("phantom RAM")
	}
	_, _ = m.Acquire("g", "ipsec", ipsecConfig())
	if got := m.totalRAM(); got < 19*execenv.MB || got > 20*execenv.MB {
		t.Errorf("ipsec NNF RAM = %.1f MB, want ~19.4", float64(got)/execenv.MB)
	}
	if !m.CanAcquire("g2", "bridge") {
		t.Error("bridge should be acquirable")
	}
	names := m.names()
	if len(names) != 7 {
		t.Errorf("names = %v", names)
	}
}
