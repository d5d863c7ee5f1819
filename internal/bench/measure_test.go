package bench

import (
	"testing"
	"time"

	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/pkt"
)

// chain wires tx -> firewall runtime -> rx with the given flavor and
// returns the injection ports plus the clock.
func chain(t *testing.T, flavor execenv.Flavor) (*netdev.Port, *netdev.Port, *execenv.VirtualClock) {
	t.Helper()
	clock := &execenv.VirtualClock{}
	env, err := execenv.New("fw", flavor, execenv.Default(), clock)
	if err != nil {
		t.Fatal(err)
	}
	rt := nf.NewRuntime("fw", nf.NewFirewall(), env, 2)
	rt.Start()
	t.Cleanup(rt.Stop)
	tx := netdev.NewPortQueueLen("tx", 1<<14)
	rx := netdev.NewPortQueueLen("rx", 1<<14)
	if err := netdev.Connect(tx, rt.Port(0)); err != nil {
		t.Fatal(err)
	}
	if err := netdev.Connect(rx, rt.Port(1)); err != nil {
		t.Fatal(err)
	}
	return tx, rx, clock
}

func TestRunCountsAndThroughput(t *testing.T) {
	tx, rx, clock := chain(t, execenv.FlavorNative)
	rep, err := Run(tx, rx, clock, Spec{Packets: 500, FrameSize: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxPackets != 500 || rep.RxPackets != 500 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LossRate() != 0 {
		t.Errorf("loss = %v", rep.LossRate())
	}
	if rep.Virtual <= 0 || rep.Wall <= 0 {
		t.Error("durations not measured")
	}
	if rep.MbpsVirtual() <= 0 || rep.MbpsWall() <= 0 {
		t.Error("throughput not computed")
	}
	if rep.NsPerPacket() <= 0 || rep.AllocsPerPacket() <= 0 {
		t.Errorf("measured columns not computed: %v ns/pkt, %v allocs/pkt", rep.NsPerPacket(), rep.AllocsPerPacket())
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestFlavorOrderingThroughRealChain(t *testing.T) {
	// The same chain, three flavors: simulated throughput must order
	// vm < docker <= native (Table 1's shape) even without crypto.
	results := map[execenv.Flavor]float64{}
	for _, f := range []execenv.Flavor{execenv.FlavorNative, execenv.FlavorDocker, execenv.FlavorVM} {
		tx, rx, clock := chain(t, f)
		rep, err := Run(tx, rx, clock, Spec{Packets: 300, FrameSize: 1500})
		if err != nil {
			t.Fatal(err)
		}
		results[f] = rep.MbpsVirtual()
	}
	if !(results[execenv.FlavorVM] < results[execenv.FlavorDocker]) {
		t.Errorf("vm (%.0f) should be slower than docker (%.0f)",
			results[execenv.FlavorVM], results[execenv.FlavorDocker])
	}
	if !(results[execenv.FlavorDocker] <= results[execenv.FlavorNative]) {
		t.Errorf("docker (%.0f) should not beat native (%.0f)",
			results[execenv.FlavorDocker], results[execenv.FlavorNative])
	}
}

func TestRunBatchSizes(t *testing.T) {
	// Packet counts that do and do not divide evenly by the burst size,
	// including frame-at-a-time, must all arrive intact.
	for _, c := range []struct{ packets, batch int }{
		{500, 1}, {500, 32}, {17, 5}, {3, 64},
	} {
		tx, rx, clock := chain(t, execenv.FlavorNative)
		rep, err := Run(tx, rx, clock, Spec{Packets: c.packets, Batch: c.batch, FrameSize: 1500})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TxPackets != uint64(c.packets) || rep.RxPackets != uint64(c.packets) {
			t.Errorf("packets=%d batch=%d: report = %+v", c.packets, c.batch, rep)
		}
	}
}

func TestRunClampsBatchToRxQueue(t *testing.T) {
	// A collecting ring smaller than the default burst must not cause
	// tail-drop loss: Run clamps the batch to the ring size.
	clock := &execenv.VirtualClock{}
	env, err := execenv.New("fw", execenv.FlavorNative, execenv.Default(), clock)
	if err != nil {
		t.Fatal(err)
	}
	rt := nf.NewRuntime("fw", nf.NewFirewall(), env, 2)
	rt.Start()
	t.Cleanup(rt.Stop)
	tx := netdev.NewPortQueueLen("tx", 8)
	rx := netdev.NewPortQueueLen("rx", 8)
	if err := netdev.Connect(tx, rt.Port(0)); err != nil {
		t.Fatal(err)
	}
	if err := netdev.Connect(rx, rt.Port(1)); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(tx, rx, clock, Spec{Packets: 200, FrameSize: 1500}) // Batch defaults to 32 > 8
	if err != nil {
		t.Fatal(err)
	}
	if rep.LossRate() != 0 {
		t.Errorf("loss = %v with rx ring 8 (batch not clamped?)", rep.LossRate())
	}
}

func TestUnpoolableTemplate(t *testing.T) {
	// A template whose capacity collides with the frame pool's class must
	// be reallocated so a pass-through drain can never recycle it.
	collide := make([]byte, pkt.FrameBufferSize)
	safe := unpoolable(collide)
	if cap(safe) == pkt.FrameBufferSize {
		t.Errorf("cap = %d still pool-class", cap(safe))
	}
	if len(safe) != len(collide) {
		t.Errorf("len = %d, want %d", len(safe), len(collide))
	}
	other := make([]byte, 1500)
	if got := unpoolable(other); &got[0] != &other[0] {
		t.Error("non-colliding template needlessly copied")
	}
	// End-to-end: a pool-class frame size through a pass-through chain
	// must still measure cleanly.
	tx, rx, clock := chain(t, execenv.FlavorNative)
	rep, err := Run(tx, rx, clock, Spec{Packets: 100, FrameSize: pkt.FrameBufferSize})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RxPackets != 100 || rep.LossRate() != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRunBidirectional(t *testing.T) {
	a, b, clock := chain(t, execenv.FlavorNative)
	rep, err := RunBidirectional(a, b, clock, Spec{Packets: 100, FrameSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxPackets != 100 || rep.RxPackets != 100 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSpecValidation(t *testing.T) {
	tx, rx, clock := chain(t, execenv.FlavorNative)
	if _, err := Run(tx, rx, clock, Spec{Packets: 1, FrameSize: 10}); err == nil {
		t.Error("tiny frame accepted")
	}
	// VLAN adds 4 bytes of headroom requirement.
	if _, err := (Spec{FrameSize: 44, VLANID: 5}).Frame(); err == nil {
		t.Error("frame below vlan overhead accepted")
	}
	f, err := (Spec{FrameSize: 1500}).Frame()
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 1500 {
		t.Errorf("frame length = %d, want 1500", len(f))
	}
	tagged, err := (Spec{FrameSize: 1500, VLANID: 7}).Frame()
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != 1500 {
		t.Errorf("tagged frame length = %d, want 1500", len(tagged))
	}
	p := pkt.NewPacket(tagged, pkt.LayerTypeEthernet, pkt.Default)
	if v, ok := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); !ok || v.VLANID != 7 {
		t.Error("vlan tag missing from template")
	}
}

func TestReportMathEdgeCases(t *testing.T) {
	var r Report
	if r.LossRate() != 0 || r.MbpsVirtual() != 0 || r.MbpsWall() != 0 || r.NsPerPacket() != 0 || r.AllocsPerPacket() != 0 {
		t.Error("zero report should produce zeros, not NaN")
	}
	r = Report{TxPackets: 10, RxPackets: 5, RxBytes: 5 * 1500, Virtual: time.Millisecond, Wall: time.Millisecond}
	if r.LossRate() != 0.5 {
		t.Errorf("loss = %v", r.LossRate())
	}
}
