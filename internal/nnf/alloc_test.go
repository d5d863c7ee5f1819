//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put back, so
// recycled frame buffers would read as allocations: the gate runs without it.

package nnf

import (
	"runtime"
	"testing"

	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/pkt"
)

// TestRuntimeHopAllocs is the hard gate on an NF hop through nf.Runtime, the
// path experiment A2 measures: a firewall attached directly forwards a frame
// without one allocation (its emissions go into the runtime's reused
// buffer), and the same firewall behind the adaptation layer allocates only
// the retagged copy of the frame, nothing else.
func TestRuntimeHopAllocs(t *testing.T) {
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, VLANID: 3000,
		SrcIP: ipA, DstIP: ipB, SrcPort: 1000, DstPort: 80, PayloadLen: 18,
	})
	ad := NewAdapter(nf.NewFirewall())
	if err := ad.AddPath(3000, AdapterPath{InnerPort: 0, EgressMarks: []uint16{3002, 3003}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		proc          nf.Processor
		ports         int
		allocs, bytes uint64
	}{
		{"direct", nf.NewFirewall(), 2, 0, 0},
		{"adapted", ad, 1, 1, uint64(len(frame) + 16)},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, err := execenv.New(c.name, execenv.FlavorNative, execenv.Default(), nil)
			if err != nil {
				t.Fatal(err)
			}
			rt := nf.NewRuntime(c.name, c.proc, env, c.ports)
			in := netdev.NewPort("in")
			if err := netdev.Connect(in, rt.Port(0)); err != nil {
				t.Fatal(err)
			}
			var got int
			in.SetHandler(func(netdev.Frame) { got++ })
			if c.ports == 2 {
				out := netdev.NewPort("out")
				if err := netdev.Connect(out, rt.Port(1)); err != nil {
					t.Fatal(err)
				}
				out.SetHandler(func(netdev.Frame) { got++ })
			}
			rt.Start()
			t.Cleanup(rt.Stop)
			send := func() {
				if err := in.Send(netdev.Frame{Data: frame}); err != nil {
					t.Fatal(err)
				}
			}
			send() // the runtime's emission buffer is made on first use
			const n = 1000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				send()
			}
			runtime.ReadMemStats(&after)
			if got != n+1 {
				t.Fatalf("%d of %d frames came out", got, n+1)
			}
			// Whole allocations and bytes per frame, as testing.AllocsPerRun
			// counts: the counters are process-wide.
			allocs := (after.Mallocs - before.Mallocs) / n
			bytes := (after.TotalAlloc - before.TotalAlloc) / n
			t.Logf("%d allocs, %d B per %d-byte frame", allocs, bytes, len(frame))
			if allocs > c.allocs || bytes > c.bytes {
				t.Errorf("%d allocs and %d B per frame, ceiling %d and %d B", allocs, bytes, c.allocs, c.bytes)
			}
		})
	}
}
