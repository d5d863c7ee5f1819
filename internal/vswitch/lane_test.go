package vswitch

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// laneRun is everything observable about one pass of the equivalence
// traffic: what left which port in which per-flow order, the per-entry hit
// counters and the telemetry totals.
type laneRun struct {
	Egress    map[string][]uint32 // "port/flow" -> delivered sequence numbers
	Entries   []string            // per installed entry: "packets/bytes"
	Rx, Tx    uint64
	Drops     uint64
	Misses    uint64
	Malformed uint64
	Lookups   uint64 // cache hits + misses
}

// stamp writes (flow, seq) into the last six payload bytes, where VLAN
// push/pop and MAC rewrites never reach.
func stamp(data []byte, flow uint16, seq uint32) {
	binary.BigEndian.PutUint16(data[len(data)-6:], flow)
	binary.BigEndian.PutUint32(data[len(data)-4:], seq)
}

func unstamp(data []byte) (flow uint16, seq uint32) {
	return binary.BigEndian.Uint16(data[len(data)-6:]), binary.BigEndian.Uint32(data[len(data)-4:])
}

// laneFlow is one microflow of the equivalence traffic.
type laneFlow struct{ vlan, srcPort, dstPort uint16 }

// laneBuckets is the SelectBucket table of the equivalence rules: bucket b
// leaves through port 2 + b%3.
func laneBuckets() (ports [NumStateBuckets]uint32) {
	for b := range ports {
		ports[b] = 2 + uint32(b%3)
	}
	return ports
}

// laneFlows are the equivalence traffic's microflows: four for the
// rewrite-tag-output rule, two tagged ones for the pop rule, six sharded by
// SelectBucket, and one that misses.
var laneFlows = []laneFlow{
	{0, 1000, 7000}, {0, 1000, 7001}, {0, 1000, 7002}, {0, 1000, 7003},
	{7, 1000, 7100}, {7, 1000, 7101},
	{0, 1000, 7200}, {0, 1001, 7200}, {0, 1002, 7200}, {0, 1003, 7200}, {0, 1004, 7200}, {0, 1005, 7200},
	{0, 1000, 7400},
}

// runLaneTraffic drives one fixed, seeded mix of single sends and bursts
// through the rule shapes the steering manager compiles — SetEthDst +
// PushVLAN + Output, PopVLAN + Output, SelectBucket over three ports — plus a
// miss and malformed frames, on a switch with the given worker count. The
// rule set is below cacheMinEntries, so the switch walks it; with cached set
// it is padded above (padToCache) and the same traffic runs through the
// microflow cache.
func runLaneTraffic(t *testing.T, workers int, cached bool) laneRun {
	t.Helper()
	sw := NewOptions("eq", 1, Options{Workers: workers})
	defer sw.Close()
	res := laneRun{Egress: map[string][]uint32{}}
	var mu sync.Mutex

	in, swIn := netdev.Veth("in", "sw-in")
	if err := sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	for num := uint32(2); num <= 4; num++ {
		num := num
		sink, swSide := netdev.Veth("sink", "sw-out")
		sink.SetBatchHandler(func(fs []netdev.Frame) {
			mu.Lock()
			defer mu.Unlock()
			for _, f := range fs {
				flow, seq := unstamp(f.Data)
				k := fmt.Sprintf("%d/%d", num, flow)
				res.Egress[k] = append(res.Egress[k], seq)
			}
		})
		if err := sw.AddPort(num, swSide); err != nil {
			t.Fatal(err)
		}
	}

	for port := uint16(7000); port < 7004; port++ {
		mustAdd(t, sw, &FlowEntry{Priority: 10, Match: MatchAll().WithInPort(1).WithL4Dst(port),
			Actions: []Action{SetEthDst(macA), PushVLAN(100), Output(2)}})
	}
	for port := uint16(7100); port < 7102; port++ {
		mustAdd(t, sw, &FlowEntry{Priority: 10, Match: MatchAll().WithInPort(1).WithVLAN(7).WithL4Dst(port),
			Actions: []Action{PopVLAN(), Output(3)}})
	}
	mustAdd(t, sw, &FlowEntry{Priority: 5, Match: MatchAll().WithInPort(1).WithL4Dst(7200),
		Actions: []Action{SelectBucket(laneBuckets())}})
	if cached {
		padToCache(t, sw)
	}

	next := make([]uint32, len(laneFlows))
	rng := rand.New(rand.NewSource(42))
	mkFrame := func() netdev.Frame {
		if rng.Intn(16) == 0 {
			return netdev.Frame{Data: []byte{1, 2, 3}}
		}
		fi := rng.Intn(len(laneFlows))
		fl := laneFlows[fi]
		data, err := pkt.BuildFrame(pkt.FrameSpec{
			SrcMAC: macA, DstMAC: macB, VLANID: fl.vlan, SrcIP: ipA, DstIP: ipB,
			SrcPort: fl.srcPort, DstPort: fl.dstPort, PayloadLen: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		stamp(data, uint16(fi), next[fi])
		next[fi]++
		return netdev.Frame{Data: data}
	}
	// Fewer frames than one worker ring holds: port RX must not tail-drop,
	// or the runs would legitimately differ.
	for sent := 0; sent < workerRingLen*3/4; {
		if rng.Intn(2) == 0 {
			if err := in.Send(mkFrame()); err != nil {
				t.Fatal(err)
			}
			sent++
			continue
		}
		burst := make([]netdev.Frame, 2+rng.Intn(70))
		for i := range burst {
			burst[i] = mkFrame()
		}
		if _, err := in.SendBatch(burst); err != nil {
			t.Fatal(err)
		}
		sent += len(burst)
	}
	sw.Close() // drains the rings; a no-op inline

	for _, e := range sw.Flows() {
		if e.Cookie == padCookie {
			continue
		}
		p, b := e.Stats()
		res.Entries = append(res.Entries, fmt.Sprintf("%d/%d", p, b))
	}
	tel := sw.Telemetry()
	res.Rx, res.Tx, res.Drops, res.Misses, res.Malformed = tel.Rx, tel.Tx, tel.Drops, tel.Misses, tel.Malformed
	res.Lookups = tel.Cache.Hits + tel.Cache.Misses
	if walked := tel.Cache.Hits == 0 && tel.Cache.Entries == 0; walked == cached {
		t.Fatalf("workers=%d cached=%v: cache stats %+v", workers, cached, tel.Cache)
	}
	for _, ws := range tel.Workers {
		if ws.QueueDrops != 0 {
			t.Fatalf("workers=%d: ring tail-dropped %d frames; the traffic must fit the ring", workers, ws.QueueDrops)
		}
	}
	return res
}

// TestLaneEquivalence is the one-datapath contract: wherever the lane runs,
// and whether the switch walks its table or serves it from the microflow
// cache, the same traffic yields the same per-flow egress sequences, the
// same counters on the real entries and the same telemetry totals — drops,
// misses and cache lookups included, since a walked frame counts as a miss.
func TestLaneEquivalence(t *testing.T) {
	ref := runLaneTraffic(t, 0, false)
	if ref.Malformed == 0 || ref.Misses == 0 || ref.Drops != ref.Misses+ref.Malformed {
		t.Fatalf("reference run did not exercise the rule set: %+v", ref)
	}
	if ref.Lookups != ref.Rx-ref.Malformed {
		t.Errorf("cache lookups = %d, want one per well-formed frame (%d)", ref.Lookups, ref.Rx-ref.Malformed)
	}
	// Every flow but the missing one egresses, each on one port: the
	// rule's, or for SelectBucket the port of the flow's bucket.
	buckets := laneBuckets()
	for fi, fl := range laneFlows {
		var want uint32 // 0: the flow misses
		switch {
		case fl.dstPort < 7100:
			want = 2
		case fl.dstPort < 7200:
			want = 3
		case fl.dstPort == 7200:
			want = buckets[FlowBucket(pkt.IPProtocolUDP, ipA, ipB, fl.srcPort, fl.dstPort)]
		}
		for num := uint32(2); num <= 4; num++ {
			if got := len(ref.Egress[fmt.Sprintf("%d/%d", num, fi)]) > 0; got != (num == want) {
				t.Errorf("flow %+v: egress on port %d = %v, want only port %d", fl, num, got, want)
			}
		}
	}
	for _, workers := range laneModes {
		for _, cached := range []bool{false, true} {
			if workers == 0 && !cached {
				continue // the reference
			}
			got := runLaneTraffic(t, workers, cached)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d cached=%v diverges from the walked inline lane:\n got %+v\nwant %+v",
					workers, cached, got, ref)
			}
		}
	}
}

// TestInlineBurstStaysABurst checks that the default switch executes a
// SendBatch as one burst end to end: 32 frames in, one batch of 32 out.
func TestInlineBurstStaysABurst(t *testing.T) {
	sw := New("burst", 1)
	hosts := rig(t, sw, 2)
	var sizes []int
	hosts[1].SetBatchHandler(func(fs []netdev.Frame) { sizes = append(sizes, len(fs)) })
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	burst := make([]netdev.Frame, 32)
	for i := range burst {
		burst[i] = netdev.Frame{Data: frame(t, 0, uint16(9000+i%4))}
	}
	if _, err := hosts[0].SendBatch(burst); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != 32 {
		t.Fatalf("egress saw batches %v, want one burst of 32", sizes)
	}
}

// TestProcessedNeverLeadsDelivery holds a frame inside a blocked egress and
// checks that PacketsProcessed does not count it until it has been
// delivered: completion loops poll the counter to decide that traffic has
// left the switch.
func TestProcessedNeverLeadsDelivery(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sw := NewOptions("pp", 1, Options{Workers: workers})
			t.Cleanup(sw.Close)
			entered := make(chan struct{})
			release := make(chan struct{})
			var delivered atomic.Uint64
			sink, swOut := netdev.Veth("sink", "sw-out")
			sink.SetHandler(func(netdev.Frame) {
				entered <- struct{}{}
				<-release
				delivered.Add(1)
			})
			if err := sw.AddPort(2, swOut); err != nil {
				t.Fatal(err)
			}
			mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
			done := make(chan struct{})
			go func() {
				defer close(done)
				sw.Inject(1, frame(t, 0, 80))
			}()
			<-entered // the frame is inside the egress handler, undelivered
			if got := sw.PacketsProcessed(); got != 0 {
				t.Errorf("PacketsProcessed = %d while the only frame is still in flight", got)
			}
			close(release)
			<-done
			waitFor(t, "frame processed", func() bool {
				d, p := delivered.Load(), sw.PacketsProcessed()
				if p > d {
					t.Errorf("processed %d > delivered %d", p, d)
				}
				return p == 1
			})
		})
	}
}

// TestHopLimitAcrossSwitches cables two switches into a forwarding loop.
// The hop count must survive every switch crossing, so the frame dies at
// netdev.MaxHops (counted as a TX drop) instead of circulating forever.
func TestHopLimitAcrossSwitches(t *testing.T) {
	eachLaneMode(t, func(t *testing.T, workers int) {
		a := NewOptions("a", 1, Options{Workers: workers})
		b := NewOptions("b", 2, Options{Workers: workers})
		t.Cleanup(a.Close)
		t.Cleanup(b.Close)
		in, aIn := netdev.Veth("in", "a-in")
		a2, b1 := netdev.Veth("a2", "b1")
		b2, a3 := netdev.Veth("b2", "a3")
		for _, w := range []struct {
			sw  *Switch
			num uint32
			p   *netdev.Port
		}{{a, 1, aIn}, {a, 2, a2}, {a, 3, a3}, {b, 1, b1}, {b, 2, b2}} {
			if err := w.sw.AddPort(w.num, w.p); err != nil {
				t.Fatal(err)
			}
		}
		// in -> a:1 -> a:2 -> b:1 -> b:2 -> a:3 -> a:2 -> ...
		mustAdd(t, a, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
		mustAdd(t, b, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
		if err := in.Send(netdev.Frame{Data: frame(t, 0, 80)}); err != nil {
			t.Fatal(err)
		}
		stats := func() (tx, dropped uint64) {
			for _, p := range []*netdev.Port{a2, b2} {
				st := p.Stats()
				tx += st.TxPackets
				dropped += st.TxDropped
			}
			return tx, dropped
		}
		waitFor(t, "the looping frame to hit the hop limit", func() bool {
			_, dropped := stats()
			return dropped == 1
		})
		// The injection is hop 1; the switches add the rest up to the limit.
		if tx, _ := stats(); tx != netdev.MaxHops-1 {
			t.Errorf("switch egress transmitted %d times, want %d", tx, netdev.MaxHops-1)
		}
	})
}

// TestOutputKeepsBufferOwnership pins the egress contract the lane must not
// disturb: an Output action hands the receiver a pool-backed copy, never the
// sender's buffer, and an Output to an unknown port counts a drop.
func TestOutputKeepsBufferOwnership(t *testing.T) {
	sw := New("out", 1)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(2), Actions: []Action{Output(9)}})
	data := frame(t, 0, 80)
	sw.Inject(1, data)
	f, ok := hosts[1].TryRecv()
	if !ok {
		t.Fatal("Output did not transmit")
	}
	if &f.Data[0] == &data[0] {
		t.Error("Output passed the caller's buffer through instead of a copy")
	}
	pkt.PutBuffer(f.Data)
	sw.Inject(2, data)
	if got := sw.Drops(); got != 1 {
		t.Errorf("Output to an unknown port: drops = %d, want 1", got)
	}
}
