//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put back, so
// recycled frame buffers would read as allocations: the gate runs without it.

package nf

import (
	"testing"

	"repro/internal/pkt"
)

// TestProcessAllocCeilings is the hard gate on the NF layer's packet path,
// the counterpart of vswitch's TestHitPathZeroAllocs: each NF parses into
// stack values and builds what it emits in one pooled frame, with the ESP
// nonce in that frame's tailroom, so a Process call allocates only its
// Emissions slice. The caller recycles every frame it gets back, as
// nf.Runtime does, so a pooled output costs nothing. A per-packet
// pkt.NewPacket or pkt.Serialize puts the count well over the ceiling. Over
// an emission buffer the caller reuses, ProcessInto allocates nothing.
func TestProcessAllocCeilings(t *testing.T) {
	const runs = 200
	left, right := gatewayPair(t)
	plain := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 40000, DstPort: 5001, PayloadLen: 1400,
	})
	// Decapsulation needs a fresh sequence number per call: AllocsPerRun
	// runs the function once more than asked, to warm up.
	var sealed [][]byte
	for i := 0; i <= runs; i++ {
		res, err := left.Process(IPsecPortPlain, plain)
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, res.Emissions[0].Frame)
	}

	ext := pkt.Addr{198, 51, 100, 1}
	nat := NewNAT(ext)
	small := udpFrame(t, pkt.Addr{10, 0, 0, 7}, ipB, 3333, 80, 0)
	res, err := nat.Process(NATPortInside, small)
	if err != nil || len(res.Emissions) != 1 {
		t.Fatalf("NAT did not translate: %+v, %v", res, err)
	}
	var out headers
	out.decode(res.Emissions[0].Frame)
	back := udpFrame(t, ipB, ext, 80, out.srcPort, 0)

	fw := NewFirewall()
	// chain-small's firewall: conntrack, rules that miss, then a CIDR match.
	if err := fw.Configure(map[string]string{
		"default": "drop", "conntrack": "true",
		"rules": "drop proto=tcp dport=22; drop proto=tcp dport=23; accept proto=udp src=10.0.0.0/8",
	}); err != nil {
		t.Fatal(err)
	}

	const ceiling = 1 // the Emissions slice
	for _, g := range []struct {
		name  string
		proc  Processor
		port  int
		frame func(i int) []byte
	}{
		{"ipsec-encap", left, IPsecPortPlain, func(int) []byte { return plain }},
		{"ipsec-decap", right, IPsecPortEncrypted, func(i int) []byte { return sealed[i] }},
		{"nat-out", nat, NATPortInside, func(int) []byte { return small }},
		{"nat-in", nat, NATPortOutside, func(int) []byte { return back }},
		{"firewall", fw, 0, func(int) []byte { return small }},
		{"monitor", NewMonitor(), 0, func(int) []byte { return small }},
	} {
		t.Run(g.name, func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				in := g.frame(i)
				i++
				res, err := g.proc.Process(g.port, in)
				if err != nil || len(res.Emissions) != 1 {
					t.Fatalf("call %d: %d emissions, error %v", i, len(res.Emissions), err)
				}
				if f := res.Emissions[0].Frame; !sameMemory(f, in) {
					pkt.PutBuffer(f)
				}
			})
			if allocs > ceiling {
				t.Errorf("%.0f allocs per Process, ceiling %d", allocs, ceiling)
			}
			if g.name == "ipsec-decap" {
				// ProcessInto below needs sequence numbers of its own.
				for j := range sealed {
					res, err := left.Process(IPsecPortPlain, plain)
					if err != nil {
						t.Fatal(err)
					}
					sealed[j] = res.Emissions[0].Frame
				}
				i = 0
			}
			// ProcessInto over a reused buffer: the Emissions slice is gone
			// too, as on nf.Runtime's path.
			into := g.proc.(IntoProcessor)
			out := make([]Emission, 0, 1)
			allocs = testing.AllocsPerRun(runs, func() {
				in := g.frame(i)
				i++
				res, err := into.ProcessInto(g.port, in, out[:0])
				if err != nil || len(res.Emissions) != 1 {
					t.Fatalf("call %d: %d emissions, error %v", i, len(res.Emissions), err)
				}
				if f := res.Emissions[0].Frame; !sameMemory(f, in) {
					pkt.PutBuffer(f)
				}
			})
			if allocs != 0 {
				t.Errorf("%.0f allocs per ProcessInto over a reused buffer, want 0", allocs)
			}
		})
	}
}
