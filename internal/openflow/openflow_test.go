package openflow

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/vswitch"
)

var (
	macA = pkt.MAC{2, 0, 0, 0, 0, 0xa}
	macB = pkt.MAC{2, 0, 0, 0, 0, 0xb}
	ipA  = pkt.Addr{10, 0, 0, 1}
	ipB  = pkt.Addr{10, 0, 0, 2}
)

// pair starts an agent for sw and returns a connected controller.
func pair(t *testing.T, sw *vswitch.Switch) *Controller {
	t.Helper()
	cConn, aConn := net.Pipe()
	agent := NewAgent(sw, aConn)
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run() }()
	ctrl, err := Connect(cConn)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() {
		_ = ctrl.Close()
		agent.Stop()
		select {
		case err := <-agentDone:
			if err != nil {
				t.Errorf("agent: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("agent did not stop")
		}
	})
	return ctrl
}

func testFrame(t *testing.T) []byte {
	t.Helper()
	f, err := pkt.BuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 5, DstPort: 6, PayloadLen: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInstallFlowAndForward(t *testing.T) {
	sw := vswitch.New("lsi", 1)
	hostA, swA := netdev.Veth("ha", "swa")
	hostB, swB := netdev.Veth("hb", "swb")
	_ = sw.AddPort(1, swA)
	_ = sw.AddPort(2, swB)
	ctrl := pair(t, sw)

	err := ctrl.InstallFlow(0, 10, 0xc0de, vswitch.MatchAll().WithInPort(1),
		[]vswitch.Action{vswitch.PushVLAN(30), vswitch.Output(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := hostA.Send(netdev.Frame{Data: testFrame(t)}); err != nil {
		t.Fatal(err)
	}
	got, ok := hostB.TryRecv()
	if !ok {
		t.Fatal("frame not forwarded through controller-installed flow")
	}
	p := pkt.NewPacket(got.Data, pkt.LayerTypeEthernet, pkt.Default)
	if v, ok := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); !ok || v.VLANID != 30 {
		t.Error("vlan action lost in translation")
	}

	// Stats must reflect the hit.
	stats, err := ctrl.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Packets != 1 || stats[0].Cookie != 0xc0de {
		t.Errorf("stats = %+v", stats)
	}

	// Delete by cookie, then traffic must miss.
	if err := ctrl.DeleteFlows(0xc0de); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	_ = hostA.Send(netdev.Frame{Data: testFrame(t)})
	if _, ok := hostB.TryRecv(); ok {
		t.Error("flow still active after delete")
	}
}

// Flows installed and deleted over the control channel drive the switch's
// microflow cache: forwarding through an agent-installed entry populates it,
// and every flow-mod advances its generation (the invalidation hook).
func TestFlowModInvalidatesCache(t *testing.T) {
	sw := vswitch.New("lsi", 1)
	hostA, swA := netdev.Veth("ha", "swa")
	hostB, swB := netdev.Veth("hb", "swb")
	_ = sw.AddPort(1, swA)
	_ = sw.AddPort(2, swB)
	ctrl := pair(t, sw)

	// A switch only caches tables of 16 entries or more (vswitch's
	// cacheMinEntries): pad with entries for an in-port nothing arrives on.
	for i := 0; i < 16; i++ {
		if err := ctrl.InstallFlow(0, 1, 2, vswitch.MatchAll().WithInPort(999), nil); err != nil {
			t.Fatal(err)
		}
	}
	err := ctrl.InstallFlow(0, 10, 1, vswitch.MatchAll().WithInPort(1),
		[]vswitch.Action{vswitch.Output(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	data := testFrame(t)
	for i := 0; i < 4; i++ {
		if err := hostA.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
		hostB.TryRecv()
	}
	cs := sw.CacheStats()
	if cs.Misses != 1 || cs.Hits != 3 {
		t.Errorf("cache stats = %+v, want 3 hits / 1 miss", cs)
	}
	if cs.Entries != 1 || !cs.Enabled {
		t.Errorf("cache stats = %+v", cs)
	}
	before := cs.Generation
	if err := ctrl.DeleteFlows(1); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if cs = sw.CacheStats(); cs.Generation <= before {
		t.Errorf("generation = %d after flow-mod, want > %d", cs.Generation, before)
	}
}

func TestFlowModErrorSurfacesOnBarrier(t *testing.T) {
	sw := vswitch.New("lsi", 1)
	ctrl := pair(t, sw)
	// A VLAN ID beyond 12 bits is rejected by the switch -> agent sends
	// ERROR, which has the flow-mod xid, not the barrier's; the test
	// verifies the channel stays usable and the flow was not installed.
	err := ctrl.InstallFlow(0, 5, 0, vswitch.MatchAll(), []vswitch.Action{vswitch.PushVLAN(5000)})
	if err != nil {
		t.Fatal(err)
	}
	_ = ctrl.Barrier()
	if len(sw.Flows()) != 0 {
		t.Error("invalid flow installed")
	}
	if _, err := ctrl.FlowStats(); err != nil {
		t.Errorf("channel dead after error: %v", err)
	}
	// A table other than 0 never leaves the controller.
	if err := ctrl.InstallFlow(1, 5, 0, vswitch.MatchAll(), nil); err == nil {
		t.Error("flow-mod for table 1 accepted: the switch has one table")
	}
}

func TestControllerCloseUnblocksRPC(t *testing.T) {
	sw := vswitch.New("lsi", 1)
	cConn, aConn := net.Pipe()
	agent := NewAgent(sw, aConn)
	go func() { _ = agent.Run() }()
	ctrl, err := Connect(cConn)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Give the Barrier a moment to register as pending.
		time.Sleep(10 * time.Millisecond)
		done <- ctrl.Close()
	}()
	agent.Stop() // kill the peer: pending RPCs must fail, not hang
	_ = ctrl.Barrier()
	if err := <-done; err != nil && err != net.ErrClosed {
		t.Logf("close: %v", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := message{Type: typeFlowMod, Xid: 77, Body: []byte("abc")}
	if err := writeMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Xid != in.Xid || !bytes.Equal(out.Body, in.Body) {
		t.Errorf("round trip = %+v", out)
	}
}

func TestReadMessageRejectsBadVersion(t *testing.T) {
	raw := []byte{0x99, 0, 0, 8, 0, 0, 0, 1}
	if _, err := readMessage(bytes.NewReader(raw)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	match := vswitch.MatchAll().
		WithInPort(3).
		WithEthType(pkt.EthernetTypeIPv4).
		WithVLAN(700).
		WithIPProto(pkt.IPProtocolTCP).
		WithIPSrc(ipA, 24).WithIPDst(ipB, 32).
		WithL4Src(80).WithL4Dst(443)
	actions := []vswitch.Action{
		vswitch.PushVLAN(9),
		vswitch.PopVLAN(),
		vswitch.SetEthSrc(macB),
		vswitch.SetEthDst(macA),
		vswitch.Output(4),
	}
	in := flowMod{Command: flowAdd, Priority: 1000, Cookie: 0xfeedface, Match: match, Actions: actions}
	body, err := encodeFlowMod(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseFlowMod(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Command != in.Command || out.Priority != in.Priority || out.Cookie != in.Cookie {
		t.Errorf("header mismatch: %+v", out)
	}
	if out.Match.String() != in.Match.String() {
		t.Errorf("match mismatch:\n in: %v\nout: %v", in.Match, out.Match)
	}
	if len(out.Actions) != len(in.Actions) {
		t.Fatalf("action count = %d, want %d", len(out.Actions), len(in.Actions))
	}
	for i := range in.Actions {
		if in.Actions[i].String() != out.Actions[i].String() {
			t.Errorf("action %d: in %v out %v", i, in.Actions[i], out.Actions[i])
		}
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	if _, err := parseFlowMod([]byte{1, 2, 3}); err == nil {
		t.Error("short flow_mod accepted")
	}
	if _, err := parseFlowStatsReply([]byte{0, 0, 0, 9}); err == nil {
		t.Error("short stats accepted")
	}
	if _, _, err := parseError([]byte{1}); err == nil {
		t.Error("short error accepted")
	}
	if _, err := decodeMatch([]byte{0, 1, 0, 99}); err == nil {
		t.Error("truncated TLV accepted")
	}
	if _, err := decodeActions([]byte{0, 99, 0, 0}); err == nil {
		t.Error("unknown action type accepted")
	}
}

func TestAgentOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sw := vswitch.New("lsi", 99)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = NewAgent(sw, conn).Run()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := Connect(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.InstallFlow(0, 1, 1, vswitch.MatchAll(), []vswitch.Action{vswitch.Output(2)}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(sw.Flows()) != 1 {
		t.Error("flow not installed over TCP")
	}
}
