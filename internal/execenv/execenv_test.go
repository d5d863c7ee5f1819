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
	boot := e.Start(nil)
	if boot != Default().NativeStart {
		t.Errorf("boot = %v", boot)
	}
	if e.Start(nil) != 0 {
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
}

// TestVMCopiesPreserveFrame: charging a VM packet leaves its frame as it
// is (the model copies nothing).
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
	e.Start(nil)
	e.Stop()
	if e.Start(nil) == 0 {
		t.Error("restart did not charge startup again")
	}
}

// TestPacketCostIsOnePacketOfCost pins PacketCost as the one-packet case
// of Cost, and Cost as linear in its counts up to the sub-nanosecond
// remainder each PacketCost truncates.
func TestPacketCostIsOnePacketOfCost(t *testing.T) {
	m := Default()
	for _, f := range []Flavor{FlavorNative, FlavorDocker, FlavorVM, FlavorDPDK} {
		for _, size := range []int{64, 501, 1500} {
			one := m.PacketCost(f, size, size)
			if got := m.Cost(f, Counts{Packets: 1, FrameBytes: uint64(size), CryptoBytes: uint64(size)}); got != one {
				t.Errorf("%s/%d: Cost of one packet = %v, PacketCost = %v", f, size, got, one)
			}
			const n = 1000
			many := m.Cost(f, Counts{Packets: n, FrameBytes: n * uint64(size), CryptoBytes: n * uint64(size)})
			if d := many - n*one; d < 0 || d > n {
				t.Errorf("%s/%d: Cost of %d packets = %v, %d × PacketCost = %v", f, size, n, many, n, n*one)
			}
		}
	}
}

// meter is a settable Meter.
type meter struct{ c Counts }

func (m *meter) Counts() Counts { return m.c }

// TestClockPricesStartedMeters: a reading is the start-up charges plus the
// priced work of every started meter; a stop keeps that work on the clock
// and a restart prices only the work counted after it.
func TestClockPricesStartedMeters(t *testing.T) {
	m := Default()
	clock := &VirtualClock{}
	a, _ := New("a", FlavorVM, m, clock)
	b, _ := New("b", FlavorNative, m, clock)
	ma, mb := &meter{}, &meter{}
	boot := a.Start(ma) + b.Start(mb)
	if clock.Now() != boot {
		t.Fatalf("idle clock = %v, want the start-ups %v", clock.Now(), boot)
	}
	work := Counts{Packets: 10, FrameBytes: 15000, CryptoBytes: 14860}
	ma.c, mb.c = work, work
	want := boot + m.Cost(FlavorVM, work) + m.Cost(FlavorNative, work)
	if clock.Now() != want {
		t.Fatalf("clock = %v, want %v", clock.Now(), want)
	}
	a.Stop()
	if clock.Now() != want {
		t.Fatalf("after stop: clock = %v, want %v", clock.Now(), want)
	}
	ma.c.Packets, ma.c.FrameBytes = 20, 30000 // counted while stopped
	if clock.Now() != want {
		t.Fatalf("work of a stopped meter priced: clock = %v, want %v", clock.Now(), want)
	}
	restart := ma.c
	want += a.Start(ma)
	ma.c.Packets, ma.c.FrameBytes = 30, 45000
	want += m.Cost(FlavorVM, ma.c) - m.Cost(FlavorVM, restart)
	if clock.Now() != want {
		t.Fatalf("after restart: clock = %v, want %v", clock.Now(), want)
	}
	b.Stop()
	a.Stop()
	if clock.Now() != want {
		t.Fatalf("after both stops: clock = %v, want %v", clock.Now(), want)
	}
}

// TestStartStopAllocateNothing: starting an environment links it into its
// clock and stopping unlinks it, in O(1) and without allocating.
func TestStartStopAllocateNothing(t *testing.T) {
	clock := &VirtualClock{}
	others := make([]*Env, 64)
	for i := range others {
		others[i], _ = New("o", FlavorDocker, Default(), clock)
		others[i].Start(&meter{})
	}
	e, _ := New("e", FlavorDocker, Default(), clock)
	mt := &meter{}
	if n := testing.AllocsPerRun(100, func() {
		e.Start(mt)
		e.Stop()
	}); n != 0 {
		t.Errorf("Start+Stop allocated %.1f times", n)
	}
	for _, o := range others {
		o.Stop()
	}
}
