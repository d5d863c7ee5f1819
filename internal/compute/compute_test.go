package compute

import (
	"fmt"
	"testing"

	"repro/internal/execenv"
	"repro/internal/imagestore"
	"repro/internal/netdev"
	"repro/internal/netns"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/nnf"
	"repro/internal/pkt"
	"repro/internal/repository"
	"repro/internal/resources"
)

const gb = 1 << 30

// testNode bundles a full driver environment.
type testNode struct {
	deps  Deps
	repo  *repository.Repository
	mgr   *nnf.Manager
	cmgr  *Manager
	nsReg *netns.Registry
}

func newTestNode(t *testing.T) *testNode {
	t.Helper()
	store := imagestore.NewStore()
	if err := repository.DefaultImages(store); err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool(8000, 4*gb)
	for _, c := range []resources.Capability{
		"kvm", "docker", "dpdk",
		"nnf:ipsec", "nnf:firewall", "nnf:nat", "nnf:bridge", "nnf:router", "nnf:monitor", "nnf:shaper",
	} {
		pool.AddCapability(c)
	}
	deps := Deps{
		NFs:       nf.DefaultRegistry(),
		Images:    store,
		Resources: pool,
		Model:     execenv.Default(),
		Clock:     &execenv.VirtualClock{},
	}
	nsReg := netns.NewRegistry()
	mgr := nnf.NewManager(nnf.Builtins(), nsReg, deps.Model, deps.Clock)
	cmgr := NewManager()
	vm, err := NewVMDriver(deps)
	if err != nil {
		t.Fatal(err)
	}
	docker, err := NewDockerDriver(deps)
	if err != nil {
		t.Fatal(err)
	}
	dpdk, err := NewDPDKDriver(deps)
	if err != nil {
		t.Fatal(err)
	}
	native, err := NewNativeDriver(deps, mgr)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Driver{vm, docker, dpdk, native} {
		if err := cmgr.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return &testNode{deps: deps, repo: repository.Default(), mgr: mgr, cmgr: cmgr, nsReg: nsReg}
}

func ipsecConfig() map[string]string {
	return map[string]string{
		"local":  "192.0.2.1",
		"remote": "203.0.113.9",
		"spi":    "4096",
		"key":    "000102030405060708090a0b0c0d0e0f10111213",
	}
}

func (n *testNode) start(t *testing.T, tech nffg.Technology, graph, name string, cfg map[string]string) *Instance {
	t.Helper()
	d, ok := n.cmgr.Driver(tech)
	if !ok {
		t.Fatalf("no driver for %q", tech)
	}
	tpl, ok := n.repo.Lookup(name)
	if !ok {
		t.Fatalf("no template %q", name)
	}
	inst, err := d.Start(StartRequest{
		InstanceName: graph + "." + name,
		GraphID:      graph,
		Template:     tpl,
		Config:       cfg,
	})
	if err != nil {
		t.Fatalf("start %s/%s: %v", tech, name, err)
	}
	return inst
}

func TestManagerRegistry(t *testing.T) {
	n := newTestNode(t)
	for _, tech := range []nffg.Technology{nffg.TechVM, nffg.TechDocker, nffg.TechDPDK, nffg.TechNative} {
		if _, ok := n.cmgr.Driver(tech); !ok {
			t.Errorf("%s driver missing", tech)
		}
	}
	vm, _ := NewVMDriver(n.deps)
	if err := n.cmgr.Register(vm); err == nil {
		t.Error("duplicate driver registration allowed")
	}
}

// Each driver answers per instance whether it takes new configuration in
// place: a configurable processor in its own environment does, a shared native
// firewall does through the NNF manager, a processor with no configuration
// update (the monitor) does not, in either packaging.
func TestDriverReconfigurer(t *testing.T) {
	n := newTestNode(t)
	for i, c := range []struct {
		tech    nffg.Technology
		name    string
		inPlace bool
	}{
		{nffg.TechDocker, "firewall", true},
		{nffg.TechNative, "firewall", true},
		{nffg.TechDocker, "monitor", false},
		{nffg.TechNative, "monitor", false},
	} {
		inst := n.start(t, c.tech, fmt.Sprintf("g%d", i), c.name, map[string]string{})
		d, _ := n.cmgr.Driver(c.tech)
		apply := d.Reconfigurer(inst)
		if (apply != nil) != c.inPlace {
			t.Errorf("%s %s: in-place update path %v, want %v", c.tech, c.name, apply != nil, c.inPlace)
			continue
		}
		if apply != nil {
			if err := apply(map[string]string{"default": "drop"}); err != nil {
				t.Errorf("%s %s: %v", c.tech, c.name, err)
			}
		}
	}
}

func TestTable1FootprintsAcrossDrivers(t *testing.T) {
	n := newTestNode(t)
	vm := n.start(t, nffg.TechVM, "g1", "ipsec", ipsecConfig())
	docker := n.start(t, nffg.TechDocker, "g2", "ipsec", ipsecConfig())

	vmRAM := float64(vm.RAM()) / float64(execenv.MB)
	dockerRAM := float64(docker.RAM()) / float64(execenv.MB)
	if vmRAM < 380 || vmRAM > 400 {
		t.Errorf("vm RAM = %.1f MB, want ~390.6", vmRAM)
	}
	if dockerRAM < 22 || dockerRAM > 27 {
		t.Errorf("docker RAM = %.1f MB, want ~24.2", dockerRAM)
	}

	// Native: the NNF ipsec is exclusive; it must be startable after the
	// VM/Docker ones (distinct graphs, distinct mechanisms).
	d, _ := n.cmgr.Driver(nffg.TechNative)
	tpl, _ := n.repo.Lookup("ipsec")
	native, err := d.Start(StartRequest{InstanceName: "g3.ipsec", GraphID: "g3", Template: tpl, Config: ipsecConfig()})
	if err != nil {
		t.Fatal(err)
	}
	nativeRAM := float64(native.RAM()) / float64(execenv.MB)
	if nativeRAM < 19 || nativeRAM > 20 {
		t.Errorf("native RAM = %.1f MB, want ~19.4", nativeRAM)
	}

	// Image sizes straight from the store.
	for img, wantMB := range map[string]uint64{"ipsec:vm": 522, "ipsec:docker": 240, "ipsec:native": 5} {
		size, err := n.deps.Images.ImageDiskSize(img)
		if err != nil {
			t.Fatal(err)
		}
		if size/execenv.MB != wantMB {
			t.Errorf("%s = %d MB, want %d", img, size/execenv.MB, wantMB)
		}
	}
}

func TestDriverStartStopReleasesResources(t *testing.T) {
	n := newTestNode(t)
	d, _ := n.cmgr.Driver(nffg.TechVM)
	inst := n.start(t, nffg.TechVM, "g1", "ipsec", ipsecConfig())
	usedCPU, _, usedRAM, _ := n.deps.Resources.Usage()
	if usedCPU == 0 || usedRAM == 0 {
		t.Fatal("no resources charged")
	}
	if !inst.Runtime.Running() {
		t.Error("runtime not running")
	}
	if err := d.Stop(inst); err != nil {
		t.Fatal(err)
	}
	usedCPU, _, usedRAM, _ = n.deps.Resources.Usage()
	if usedCPU != 0 || usedRAM != 0 {
		t.Errorf("leak: %dm cpu, %d ram", usedCPU, usedRAM)
	}
	if inst.Runtime.Running() {
		t.Error("runtime still running")
	}
	if du := n.deps.Images.DiskUsage(); du != 0 {
		t.Errorf("image bytes leaked: %d", du)
	}
}

func TestDriverResourceExhaustionRollsBack(t *testing.T) {
	store := imagestore.NewStore()
	_ = repository.DefaultImages(store)
	pool := resources.NewPool(8000, 100*execenv.MB) // too small for a VM
	pool.AddCapability("kvm")
	deps := Deps{NFs: nf.DefaultRegistry(), Images: store, Resources: pool,
		Model: execenv.Default(), Clock: &execenv.VirtualClock{}}
	d, err := NewVMDriver(deps)
	if err != nil {
		t.Fatal(err)
	}
	repo := repository.Default()
	tpl, _ := repo.Lookup("ipsec")
	_, err = d.Start(StartRequest{InstanceName: "x", GraphID: "g", Template: tpl, Config: ipsecConfig()})
	if err == nil {
		t.Fatal("oversized VM admitted")
	}
	if du := store.DiskUsage(); du != 0 {
		t.Errorf("failed start leaked image bytes: %d", du)
	}
	usedCPU, _, _, _ := pool.Usage()
	if usedCPU != 0 {
		t.Error("failed start leaked cpu")
	}
}

func TestDriverMissingCapability(t *testing.T) {
	store := imagestore.NewStore()
	_ = repository.DefaultImages(store)
	pool := resources.NewPool(8000, 4*gb) // no capabilities at all
	deps := Deps{NFs: nf.DefaultRegistry(), Images: store, Resources: pool,
		Model: execenv.Default(), Clock: &execenv.VirtualClock{}}
	d, _ := NewVMDriver(deps)
	repo := repository.Default()
	tpl, _ := repo.Lookup("ipsec")
	if d.Available("g", tpl) {
		t.Error("driver available without kvm capability")
	}
	if _, err := d.Start(StartRequest{InstanceName: "x", GraphID: "g", Template: tpl, Config: ipsecConfig()}); err == nil {
		t.Error("started without capability")
	}
}

func TestDriverUnpackagedTemplate(t *testing.T) {
	n := newTestNode(t)
	d, _ := n.cmgr.Driver(nffg.TechVM)
	tpl, _ := n.repo.Lookup("nat") // nat has no VM flavor
	if d.Available("g", tpl) {
		t.Error("driver claims to support unpackaged template")
	}
	if _, err := d.Start(StartRequest{InstanceName: "x", GraphID: "g", Template: tpl,
		Config: map[string]string{"external_ip": "198.51.100.1"}}); err == nil {
		t.Error("started unpackaged flavor")
	}
}

func TestNativeDriverSharing(t *testing.T) {
	n := newTestNode(t)
	d, _ := n.cmgr.Driver(nffg.TechNative)
	tpl, _ := n.repo.Lookup("firewall")

	i1, err := d.Start(StartRequest{InstanceName: "g1.fw", GraphID: "g1", Template: tpl, Config: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if !i1.Shared || len(i1.InMarks) != 2 {
		t.Fatalf("first native firewall = %+v", i1)
	}
	_, _, ramAfterFirst, _ := n.deps.Resources.Usage()

	i2, err := d.Start(StartRequest{InstanceName: "g2.fw", GraphID: "g2", Template: tpl, Config: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if i2.Runtime != i1.Runtime {
		t.Error("second graph did not share the runtime")
	}
	_, _, ramAfterSecond, _ := n.deps.Resources.Usage()
	if ramAfterSecond != ramAfterFirst {
		t.Errorf("sharing charged extra RAM: %d -> %d", ramAfterFirst, ramAfterSecond)
	}

	// Tear down in order; resources must free only after the last user.
	if err := d.Stop(i1); err != nil {
		t.Fatal(err)
	}
	if len(n.mgr.Instances("firewall")) != 1 {
		t.Error("instance destroyed while g2 still uses it")
	}
	if err := d.Stop(i2); err != nil {
		t.Fatal(err)
	}
	usedCPU, _, usedRAM, _ := n.deps.Resources.Usage()
	if usedCPU != 0 || usedRAM != 0 {
		t.Errorf("leak after both stops: %dm, %d", usedCPU, usedRAM)
	}
}

func TestNativeDriverBusyExclusive(t *testing.T) {
	n := newTestNode(t)
	d, _ := n.cmgr.Driver(nffg.TechNative)
	tpl, _ := n.repo.Lookup("ipsec")
	if !d.Available("g1", tpl) {
		t.Fatal("native ipsec should be available")
	}
	i1, err := d.Start(StartRequest{InstanceName: "g1.ipsec", GraphID: "g1", Template: tpl, Config: ipsecConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// Second graph: the paper's fallback trigger.
	if d.Available("g2", tpl) {
		t.Error("exclusive NNF reported available while busy")
	}
	if _, err := d.Start(StartRequest{InstanceName: "g2.ipsec", GraphID: "g2", Template: tpl, Config: ipsecConfig()}); err == nil {
		t.Error("busy exclusive NNF started twice")
	}
	_ = d.Stop(i1)
	if !d.Available("g2", tpl) {
		t.Error("NNF not available after release")
	}
}

func TestNativeNFProcessesTraffic(t *testing.T) {
	n := newTestNode(t)
	inst := n.start(t, nffg.TechNative, "g1", "ipsec", ipsecConfig())
	lan := netdev.NewPort("lan")
	wan := netdev.NewPort("wan")
	if err := netdev.Connect(lan, inst.Runtime.Port(0)); err != nil {
		t.Fatal(err)
	}
	if err := netdev.Connect(wan, inst.Runtime.Port(1)); err != nil {
		t.Fatal(err)
	}
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 1, DstPort: 2, PayloadLen: 100,
	})
	if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
		t.Fatal(err)
	}
	enc, ok := wan.TryRecv()
	if !ok {
		t.Fatal("no ESP emitted by native ipsec")
	}
	p := pkt.NewPacket(enc.Data, pkt.LayerTypeEthernet, pkt.Default)
	if p.Layer(pkt.LayerTypeESP) == nil {
		t.Error("native ipsec did not encrypt")
	}
}

// TestRegisterRefusesUnknownTechnology: a driver names one of the NF-FG's
// technologies, which the node's NF events encode as a one-byte code.
func TestRegisterRefusesUnknownTechnology(t *testing.T) {
	for _, tech := range []nffg.Technology{nffg.TechAny, "bare-metal"} {
		if err := NewManager().Register(&envDriver{tech: tech}); err == nil {
			t.Errorf("a driver for technology %q registered", tech)
		}
	}
}
