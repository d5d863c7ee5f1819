package vswitch

import (
	"testing"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// telemetryRig builds a 2-port switch with a synchronous sink on port 2 and
// returns the injection port.
func telemetryRig(t *testing.T) (*Switch, *netdev.Port) {
	t.Helper()
	sw := New("tel", 1)
	in, swIn := netdev.Veth("in", "sw-in")
	sink, swSink := netdev.Veth("sink", "sw-sink")
	if err := sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(2, swSink); err != nil {
		t.Fatal(err)
	}
	sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data) })
	return sw, in
}

func telFrame(t *testing.T) []byte {
	t.Helper()
	f, err := pkt.BuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5001, PayloadLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSwitchTelemetryCounters(t *testing.T) {
	sw, in := telemetryRig(t)
	if err := sw.AddFlow(&FlowEntry{
		Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	data := telFrame(t)
	const n = 2500 // > 1<<latencySampleShift so the histogram must sample
	for i := 0; i < n; i++ {
		if err := in.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	tel := sw.Telemetry()
	if tel.Rx != n {
		t.Fatalf("rx = %d, want %d", tel.Rx, n)
	}
	if tel.Tx != n {
		t.Fatalf("tx = %d, want %d", tel.Tx, n)
	}
	if tel.Drops != 0 {
		t.Fatalf("drops = %d, want 0", tel.Drops)
	}
	if len(tel.TableMatches) != DefaultTables || tel.TableMatches[0] != n {
		t.Fatalf("table matches = %v, want %d in table 0", tel.TableMatches, n)
	}
	wantSamples := uint64(n >> latencySampleShift)
	if tel.Latency.Count != wantSamples {
		t.Fatalf("latency samples = %d, want %d", tel.Latency.Count, wantSamples)
	}
	var bucketTotal uint64
	for _, c := range tel.Latency.Counts {
		bucketTotal += c
	}
	if bucketTotal != tel.Latency.Count {
		t.Fatalf("latency buckets %v do not sum to count %d", tel.Latency.Counts, tel.Latency.Count)
	}
	if tel.Cache.Hits+tel.Cache.Misses != n {
		t.Fatalf("cache hits+misses = %d, want %d", tel.Cache.Hits+tel.Cache.Misses, n)
	}
}

func TestSwitchTelemetryDrops(t *testing.T) {
	sw, in := telemetryRig(t)
	// Steer to a port that does not exist: every frame drops on egress.
	if err := sw.AddFlow(&FlowEntry{
		Match: MatchAll().WithInPort(1), Actions: []Action{Output(9)},
	}); err != nil {
		t.Fatal(err)
	}
	data := telFrame(t)
	for i := 0; i < 10; i++ {
		if err := in.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	tel := sw.Telemetry()
	if tel.Drops != 10 {
		t.Fatalf("unknown-port drops = %d, want 10", tel.Drops)
	}
	if tel.Tx != 0 {
		t.Fatalf("tx = %d, want 0", tel.Tx)
	}

	// Miss with the default drop policy also counts as a drop.
	sw2, in2 := telemetryRig(t)
	for i := 0; i < 5; i++ {
		if err := in2.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	tel2 := sw2.Telemetry()
	if tel2.Misses != 5 || tel2.Drops != 5 {
		t.Fatalf("miss-drop: misses=%d drops=%d, want 5/5", tel2.Misses, tel2.Drops)
	}

	// MissController with no controller attached still discards: the drop
	// must be counted, not hidden behind the punt policy.
	sw3, in3 := telemetryRig(t)
	sw3.SetMissPolicy(MissController)
	for i := 0; i < 3; i++ {
		if err := in3.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	tel3 := sw3.Telemetry()
	if tel3.Drops != 3 {
		t.Fatalf("handlerless punt: drops=%d, want 3", tel3.Drops)
	}
	// With a handler attached the punt is a delivery, not a drop.
	sw3.SetPacketInHandler(func(pi PacketIn) { pkt.PutBuffer(pi.Data) })
	for i := 0; i < 2; i++ {
		if err := in3.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if tel3 = sw3.Telemetry(); tel3.Drops != 3 || tel3.Misses != 5 {
		t.Fatalf("attached punt: misses=%d drops=%d, want 5/3", tel3.Misses, tel3.Drops)
	}
}
