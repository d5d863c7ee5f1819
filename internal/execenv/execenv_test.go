package execenv

import (
	"testing"
	"time"
)

// frameSize is Table 1's MTU-sized frame.
const frameSize = 1500

// mbps converts a per-packet cost to the throughput it sustains.
func mbps(perPacket time.Duration, frameBytes int) float64 {
	pps := float64(time.Second) / float64(perPacket)
	return pps * float64(frameBytes) * 8 / 1e6
}

// TestTable1ThroughputShape checks the calibrated model reproduces the
// paper's ordering and magnitudes: native ≈ docker ≈ 1095 Mbps, VM ≈ 796,
// i.e. the kernel-path flavors beat the VM by ~1.37x.
func TestTable1ThroughputShape(t *testing.T) {
	m := Default()
	native := m.PacketCost(FlavorNative, frameSize, frameSize)
	docker := m.PacketCost(FlavorDocker, frameSize, frameSize)
	vm := m.PacketCost(FlavorVM, frameSize, frameSize)

	nativeMbps := mbps(native, frameSize)
	dockerMbps := mbps(docker, frameSize)
	vmMbps := mbps(vm, frameSize)

	within := func(got, want, tolPct float64) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff/want*100 <= tolPct
	}
	if !within(nativeMbps, 1094, 3) {
		t.Errorf("native = %.0f Mbps, want ~1094", nativeMbps)
	}
	if !within(dockerMbps, 1095, 3) {
		t.Errorf("docker = %.0f Mbps, want ~1095", dockerMbps)
	}
	if !within(vmMbps, 796, 3) {
		t.Errorf("vm = %.0f Mbps, want ~796", vmMbps)
	}
	// Ordering and ratio.
	if !(vmMbps < dockerMbps && vmMbps < nativeMbps) {
		t.Error("VM must be the slowest flavor")
	}
	ratio := nativeMbps / vmMbps
	if ratio < 1.25 || ratio > 1.5 {
		t.Errorf("native/vm ratio = %.2f, want ~1.37", ratio)
	}
	// Docker and native within 5% of each other (paper: 1095 vs 1094).
	if !within(dockerMbps, nativeMbps, 5) {
		t.Errorf("docker (%0.f) and native (%.0f) should be comparable", dockerMbps, nativeMbps)
	}
}

// TestTable1RAMShape checks the RAM column: 390.6 / 24.2 / 19.4 MB.
func TestTable1RAMShape(t *testing.T) {
	m := Default()
	const workload = uint64(20342374) // 19.4 MB: strongSwan process + SA state
	ram := func(f Flavor) float64 {
		e, err := New("x", f, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkloadRAM(workload)
		return float64(e.RAM()) / MB
	}
	vm, docker, native := ram(FlavorVM), ram(FlavorDocker), ram(FlavorNative)
	if vm < 380 || vm > 400 {
		t.Errorf("vm RAM = %.1f MB, want ~390.6", vm)
	}
	if docker < 22 || docker > 27 {
		t.Errorf("docker RAM = %.1f MB, want ~24.2", docker)
	}
	if native < 19 || native > 20 {
		t.Errorf("native RAM = %.1f MB, want ~19.4", native)
	}
	if !(native < docker && docker < vm) {
		t.Error("RAM ordering broken")
	}
	if vm/native < 15 {
		t.Errorf("vm/native RAM ratio = %.1f, want ≥ 15 (paper: 20.1)", vm/native)
	}
}

func TestStartupOrdering(t *testing.T) {
	m := Default()
	if !(m.StartupTime(FlavorNative) < m.StartupTime(FlavorDocker) &&
		m.StartupTime(FlavorDocker) < m.StartupTime(FlavorVM)) {
		t.Error("startup latency ordering broken")
	}
}

func TestEnvChargesClock(t *testing.T) {
	clock := &VirtualClock{}
	e, err := New("nf", FlavorNative, Default(), clock)
	if err != nil {
		t.Fatal(err)
	}
	boot := e.Start()
	if boot != Default().NativeStart {
		t.Errorf("boot = %v", boot)
	}
	if e.Start() != 0 {
		t.Error("second Start charged again")
	}
	before := clock.Now()
	frame := make([]byte, 1000)
	_, cost := e.ProcessPacket(frame, 0)
	if cost <= 0 {
		t.Error("no packet cost charged")
	}
	if clock.Now()-before != cost {
		t.Error("clock advance != returned cost")
	}
	p, b := e.Counters()
	if p != 1 || b != 1000 {
		t.Errorf("counters = %d/%d", p, b)
	}
}

func TestVMCopiesPreserveFrame(t *testing.T) {
	e, err := New("vm", FlavorVM, Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{1, 2, 3, 4, 5}
	out, _ := e.ProcessPacket(frame, 0)
	for i, b := range out {
		if b != byte(i+1) {
			t.Fatalf("frame corrupted by virtio copy: %v", out)
		}
	}
}

func TestSharedClockAccumulatesAcrossEnvs(t *testing.T) {
	clock := &VirtualClock{}
	m := Default()
	a, _ := New("a", FlavorNative, m, clock)
	b, _ := New("b", FlavorDocker, m, clock)
	frame := make([]byte, 100)
	_, ca := a.ProcessPacket(frame, 0)
	_, cb := b.ProcessPacket(frame, 0)
	if clock.Now() != ca+cb {
		t.Errorf("clock = %v, want %v", clock.Now(), ca+cb)
	}
	clock.Reset()
	if clock.Now() != 0 {
		t.Error("reset failed")
	}
}

func TestCryptoBytesDominateAtMTU(t *testing.T) {
	// At MTU size, crypto must be the dominant cost for kernel-path
	// flavors (that is what makes Docker ≈ native in the paper).
	m := Default()
	withCrypto := m.PacketCost(FlavorNative, frameSize, frameSize)
	withoutCrypto := m.PacketCost(FlavorNative, frameSize, 0)
	if float64(withoutCrypto)/float64(withCrypto) > 0.35 {
		t.Errorf("kernel path (%v) should be minor next to crypto (%v)", withoutCrypto, withCrypto)
	}
}

func TestDPDKFastestPath(t *testing.T) {
	m := Default()
	if m.PacketCost(FlavorDPDK, frameSize, 0) >= m.PacketCost(FlavorNative, frameSize, 0) {
		t.Error("DPDK poll-mode path should beat the kernel path")
	}
}

func TestInvalidFlavorRejected(t *testing.T) {
	if _, err := New("x", Flavor("xen"), Default(), nil); err == nil {
		t.Error("unknown flavor accepted")
	}
	if Flavor("xen").Valid() {
		t.Error("Valid accepted xen")
	}
}

func TestStopAllowsRestart(t *testing.T) {
	e, _ := New("x", FlavorDocker, Default(), nil)
	e.Start()
	e.Stop()
	if e.Start() == 0 {
		t.Error("restart did not charge startup again")
	}
}
