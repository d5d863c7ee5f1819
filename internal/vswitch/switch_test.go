package vswitch

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

var (
	macA = pkt.MAC{2, 0, 0, 0, 0, 0xa}
	macB = pkt.MAC{2, 0, 0, 0, 0, 0xb}
	ipA  = pkt.Addr{10, 0, 0, 1}
	ipB  = pkt.Addr{10, 0, 0, 2}
)

// rig wires N external "host" ports to a switch and returns their far ends,
// which tests use to send and receive.
func rig(t *testing.T, sw *Switch, n int) []*netdev.Port {
	t.Helper()
	hosts := make([]*netdev.Port, n)
	for i := 0; i < n; i++ {
		host, swSide := netdev.Veth("host", "sw")
		if err := sw.AddPort(uint32(i+1), swSide); err != nil {
			t.Fatal(err)
		}
		hosts[i] = host
	}
	return hosts
}

func frame(t testing.TB, vlan uint16, dstPort uint16) []byte {
	t.Helper()
	f, err := pkt.BuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, VLANID: vlan,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 1000, DstPort: dstPort, PayloadLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustAdd(t *testing.T, sw *Switch, e *FlowEntry) {
	t.Helper()
	if err := sw.AddFlow(e); err != nil {
		t.Fatal(err)
	}
}

func TestBasicForwarding(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	if err := hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Fatal("frame not forwarded 1->2")
	}
	// No reverse rule: must miss.
	_ = hosts[1].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[0].TryRecv(); ok {
		t.Fatal("frame forwarded without a rule")
	}
	if sw.Misses() != 1 {
		t.Errorf("misses = %d, want 1", sw.Misses())
	}
}

func TestPriorityWins(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Priority: 10, Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Priority: 100, Match: MatchAll().WithInPort(1).WithL4Dst(443), Actions: []Action{Output(3)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 443)})
	if _, ok := hosts[2].TryRecv(); !ok {
		t.Error("high-priority rule not preferred")
	}
	if _, ok := hosts[1].TryRecv(); ok {
		t.Error("low-priority rule also fired")
	}
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("fallback rule not used for non-matching traffic")
	}
}

func TestEqualPriorityOldestWins(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Priority: 5, Match: MatchAll(), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Priority: 5, Match: MatchAll(), Actions: []Action{Output(3)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("oldest equal-priority entry must win")
	}
	if _, ok := hosts[2].TryRecv(); ok {
		t.Error("newer equal-priority entry fired")
	}
}

func TestVLANPushPopSet(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{PushVLAN(100), Output(2)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	f, ok := hosts[1].TryRecv()
	if !ok {
		t.Fatal("no frame")
	}
	p := pkt.NewPacket(f.Data, pkt.LayerTypeEthernet, pkt.Default)
	v, okv := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN)
	if !okv || v.VLANID != 100 {
		t.Fatalf("push_vlan failed: %v", p)
	}
	if p.Layer(pkt.LayerTypeUDP) == nil {
		t.Fatal("payload damaged by push")
	}

	// A second switch rewrites a MAC under the tag, a third pops it.
	newDst := pkt.MAC{4, 4, 4, 4, 4, 4}
	sw2 := New("lsi2", 2)
	h2 := rig(t, sw2, 2)
	mustAdd(t, sw2, &FlowEntry{Priority: 10, Match: MatchAll().WithVLAN(100), Actions: []Action{SetEthDst(newDst), Output(2)}})
	_ = h2[0].Send(netdev.Frame{Data: f.Data})
	g, ok := h2[1].TryRecv()
	if !ok {
		t.Fatal("no frame from sw2")
	}
	q := pkt.NewPacket(g.Data, pkt.LayerTypeEthernet, pkt.Default)
	if v := q.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); v.VLANID != 100 {
		t.Fatalf("set_dl_dst disturbed the tag: id=%d", v.VLANID)
	}
	if eth := q.Layer(pkt.LayerTypeEthernet).(*pkt.Ethernet); eth.DstMAC != newDst {
		t.Fatalf("set_dl_dst on a tagged frame: dst=%v", eth.DstMAC)
	}

	sw3 := New("lsi3", 3)
	h3 := rig(t, sw3, 2)
	mustAdd(t, sw3, &FlowEntry{Match: MatchAll().WithVLAN(100), Actions: []Action{PopVLAN(), Output(2)}})
	_ = h3[0].Send(netdev.Frame{Data: g.Data})
	u, ok := h3[1].TryRecv()
	if !ok {
		t.Fatal("no frame from sw3")
	}
	r := pkt.NewPacket(u.Data, pkt.LayerTypeEthernet, pkt.Default)
	if r.Layer(pkt.LayerTypeVLAN) != nil {
		t.Fatal("pop_vlan left a tag")
	}
	if udp, ok := r.Layer(pkt.LayerTypeUDP).(*pkt.UDP); !ok || udp.DstPort != 80 {
		t.Fatal("payload damaged by pop")
	}
}

// TestSelectBucketShardsTheEditedFrame pins why a tag push or pop reparses
// the flow key: a frame carrying a shared NNF's mark over a tagged user
// frame is not IP until the mark is popped, and SelectBucket must then shard
// it by the 5-tuple it carries, as the NF replicas behind it see it.
func TestSelectBucketShardsTheEditedFrame(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 4)
	buckets := laneBuckets()
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{PopVLAN(), SelectBucket(buckets)}})
	for src := uint16(1000); src < 1006; src++ {
		f, err := pkt.BuildFrame(pkt.FrameSpec{SrcMAC: macA, DstMAC: macB, VLANID: 7,
			SrcIP: ipA, DstIP: ipB, SrcPort: src, DstPort: 80, PayloadLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		_ = hosts[0].Send(netdev.Frame{Data: pkt.PushVLAN(f, 100)})
		want := buckets[FlowBucket(pkt.IPProtocolUDP, ipA, ipB, src, 80)]
		for num := uint32(2); num <= 4; num++ {
			if _, got := hosts[num-1].TryRecv(); got != (num == want) {
				t.Errorf("source port %d: delivered on port %d = %v, want only port %d", src, num, got, want)
			}
		}
	}
}

// TestPacketOutInjectAndOutput checks that Inject runs a frame through the
// flow table as if it arrived on the given port: the entry matching that
// in-port decides where the frame leaves, and a port with no entry emits
// nothing.
func TestPacketOutInjectAndOutput(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(2), Actions: []Action{Output(1)}})
	sw.Inject(1, frame(t, 0, 80))
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("Inject on port 1 did not traverse pipeline to port 2")
	}
	sw.Inject(2, frame(t, 0, 80))
	if _, ok := hosts[0].TryRecv(); !ok {
		t.Error("Inject on port 2 did not traverse pipeline to port 1")
	}
	sw.Inject(3, frame(t, 0, 80))
	for i, h := range hosts {
		if _, ok := h.TryRecv(); ok {
			t.Errorf("Inject on unmatched port 3 emitted a frame on port %d", i+1)
		}
	}
	if sw.Misses() != 1 {
		t.Errorf("misses = %d, want 1", sw.Misses())
	}
}

func TestDeleteFlowsByCookie(t *testing.T) {
	sw := New("lsi", 1)
	mustAdd(t, sw, &FlowEntry{Cookie: 7, Match: MatchAll()})
	mustAdd(t, sw, &FlowEntry{Cookie: 7, Priority: 1, Match: MatchAll()})
	mustAdd(t, sw, &FlowEntry{Cookie: 9, Match: MatchAll()})
	if n := sw.DeleteFlows(7); n != 2 {
		t.Errorf("deleted %d, want 2", n)
	}
	if len(sw.Flows()) != 1 {
		t.Errorf("remaining = %d, want 1", len(sw.Flows()))
	}
	if n := sw.DeleteFlows(7); n != 0 {
		t.Errorf("deleting a gone cookie removed %d, want 0", n)
	}
}

func TestFlowStatsCount(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	e := &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}}
	mustAdd(t, sw, e)
	data := frame(t, 0, 80)
	for i := 0; i < 5; i++ {
		_ = hosts[0].Send(netdev.Frame{Data: data})
	}
	p, b := e.Stats()
	if p != 5 || b != uint64(5*len(data)) {
		t.Errorf("stats = %d pkts %d bytes", p, b)
	}
	if sw.PacketsProcessed() != 5 {
		t.Errorf("pipeline counter = %d", sw.PacketsProcessed())
	}
}

func TestMatchFields(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	m := MatchAll().
		WithInPort(1).WithEthType(pkt.EthernetTypeIPv4).
		WithIPSrc(pkt.Addr{10, 0, 0, 0}, 24).WithIPDst(ipB, 32).
		WithIPProto(pkt.IPProtocolUDP).WithL4Src(1000).WithL4Dst(80)
	mustAdd(t, sw, &FlowEntry{Match: m, Actions: []Action{Output(2)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("full-field match failed")
	}
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 81)})
	if _, ok := hosts[1].TryRecv(); ok {
		t.Error("wrong dst port matched")
	}
}

func TestSetEthAddrs(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	newSrc := pkt.MAC{2, 2, 2, 2, 2, 2}
	newDst := pkt.MAC{4, 4, 4, 4, 4, 4}
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{SetEthSrc(newSrc), SetEthDst(newDst), Output(2)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	f, ok := hosts[1].TryRecv()
	if !ok {
		t.Fatal("no frame")
	}
	p := pkt.NewPacket(f.Data, pkt.LayerTypeEthernet, pkt.Default)
	eth := p.Layer(pkt.LayerTypeEthernet).(*pkt.Ethernet)
	if eth.SrcMAC != newSrc || eth.DstMAC != newDst {
		t.Errorf("rewrite failed: %v -> %v", eth.SrcMAC, eth.DstMAC)
	}
}

func TestPortManagement(t *testing.T) {
	sw := New("lsi", 1)
	p := netdev.NewPort("x")
	if err := sw.AddPort(0, p); err == nil {
		t.Error("port 0 accepted")
	}
	if err := sw.AddPort(1, p); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(1, netdev.NewPort("y")); err == nil {
		t.Error("duplicate port number accepted")
	}
	if sw.Port(1) != p {
		t.Error("Port lookup failed")
	}
	if err := sw.RemovePort(1); err != nil {
		t.Fatal(err)
	}
	if err := sw.RemovePort(1); err == nil {
		t.Error("double remove accepted")
	}
}

func TestDumpContainsRules(t *testing.T) {
	sw := New("lsi-0", 42)
	mustAdd(t, sw, &FlowEntry{Priority: 3, Cookie: 0xbeef,
		Match: MatchAll().WithVLAN(5), Actions: []Action{PopVLAN(), Output(2)}})
	d := sw.dump()
	for _, want := range []string{"lsi-0", "dl_vlan=5", "pop_vlan", "output:2", "0xbeef"} {
		if !contains(d, want) {
			t.Errorf("Dump missing %q in:\n%s", want, d)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestAddPortNumberRange(t *testing.T) {
	sw := New("lsi", 1)
	for _, num := range []uint32{0, maxPortNum + 1} {
		if err := sw.AddPort(num, netdev.NewPort("p")); err == nil {
			t.Errorf("AddPort(%d) accepted", num)
		}
	}
	p := netdev.NewPort("top")
	if err := sw.AddPort(maxPortNum, p); err != nil {
		t.Fatal(err)
	}
	if sw.Port(maxPortNum) != p || len(sw.Ports()) != 1 || sw.Ports()[0] != maxPortNum {
		t.Fatalf("port %d not attached: Ports() = %v", maxPortNum, sw.Ports())
	}
}

// TestPortNumberReuse detaches a port while frames it received wait in the
// worker rings, then attaches another port under its number with entries
// of its own. No frame of the first port may be classified against the
// second's entries: RemovePort returns only once the rings have run what
// they held under the number.
func TestPortNumberReuse(t *testing.T) {
	eachLaneMode(t, func(t *testing.T, workers int) {
		sw := NewOptions("reuse", 1, Options{Workers: workers})
		t.Cleanup(sw.Close)
		a, aSw := netdev.Veth("a", "sw-a")
		b, bSw := netdev.Veth("b", "sw-b")
		oldOut, oldSw := netdev.Veth("old", "sw-old")
		newOut, newSw := netdev.Veth("new", "sw-new")
		for num, p := range map[uint32]*netdev.Port{1: aSw, 2: oldSw, 3: newSw} {
			if err := sw.AddPort(num, p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sw.CommitFlows(nil, []*FlowEntry{{Cookie: 1, Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}}}); err != nil {
			t.Fatal(err)
		}
		// The old egress holds the worker inside its first burst until the
		// gate opens, so the second burst from a waits in the ring.
		gate, entered := make(chan struct{}), make(chan struct{}, 1)
		if workers == 0 {
			close(gate)
		}
		oldOut.SetHandler(func(netdev.Frame) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-gate
		})
		var misrouted, delivered atomic.Int64
		newOut.SetHandler(func(f netdev.Frame) {
			if f.Data[len(f.Data)-1] == 'a' {
				misrouted.Add(1)
			} else {
				delivered.Add(1)
			}
		})
		burst := func(p *netdev.Port, marker byte) {
			fs := make([]netdev.Frame, 8)
			for i := range fs {
				fs[i].Data = pkt.MustBuildFrame(pkt.FrameSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
					SrcPort: 1000, DstPort: 80, PayloadLen: 32, PayloadByte: marker})
			}
			if _, err := p.SendBatch(fs); err != nil {
				t.Fatal(err)
			}
		}
		burst(a, 'a')
		if workers > 0 {
			<-entered
		}
		burst(a, 'a')

		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := sw.RemovePort(1); err != nil {
				t.Error(err)
				return
			}
			if err := sw.AddPort(1, bSw); err != nil {
				t.Error(err)
				return
			}
			if _, err := sw.CommitFlows([]uint64{1}, []*FlowEntry{{Cookie: 2, Match: MatchAll().WithInPort(1), Actions: []Action{Output(3)}}}); err != nil {
				t.Error(err)
			}
		}()
		if workers > 0 {
			// RemovePort must wait for the held burst: open the gate once
			// it has either returned or had time to.
			select {
			case <-done:
			case <-time.After(50 * time.Millisecond):
			}
			close(gate)
		}
		<-done
		burst(b, 'b')
		for deadline := time.Now().Add(5 * time.Second); sw.PacketsProcessed() < 24; {
			if time.Now().After(deadline) {
				t.Fatalf("%d of 24 frames processed", sw.PacketsProcessed())
			}
			time.Sleep(time.Millisecond)
		}
		if n := misrouted.Load(); n != 0 {
			t.Errorf("%d frames of the removed port left by the entries of the port that reused its number", n)
		}
		if n := delivered.Load(); n != 8 {
			t.Errorf("%d of 8 frames of the new port delivered", n)
		}
	})
}
