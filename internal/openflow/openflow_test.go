package openflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
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

// pair starts an agent for sw on one end of a net.Pipe and returns the
// controller connected to the other.
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

// local returns sw's synchronous in-process controller.
func local(t *testing.T, sw *vswitch.Switch) *Controller {
	ctrl := Local(sw)
	t.Cleanup(func() { _ = ctrl.Close() })
	return ctrl
}

// transports are the two ways a controller reaches its switch's agent;
// every channel test runs over both.
var transports = []struct {
	name string
	open opener
}{{"pipe", pair}, {"local", local}}

// opener returns a controller of sw that the test's cleanup closes.
type opener func(*testing.T, *vswitch.Switch) *Controller

// overTransports runs test as one subtest per transport.
func overTransports(t *testing.T, test func(t *testing.T, open opener)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { test(t, tr.open) })
	}
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
	overTransports(t, func(t *testing.T, open opener) {
		sw := vswitch.New("lsi", 1)
		hostA, swA := netdev.Veth("ha", "swa")
		hostB, swB := netdev.Veth("hb", "swb")
		_ = sw.AddPort(1, swA)
		_ = sw.AddPort(2, swB)
		ctrl := open(t, sw)

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
	})
}

// Flows installed and deleted over the control channel drive the switch's
// microflow cache: forwarding through an agent-installed entry populates it,
// and every flow-mod advances its generation (the invalidation hook).
func TestFlowModInvalidatesCache(t *testing.T) {
	overTransports(t, func(t *testing.T, open opener) {
		sw := vswitch.New("lsi", 1)
		hostA, swA := netdev.Veth("ha", "swa")
		hostB, swB := netdev.Veth("hb", "swb")
		_ = sw.AddPort(1, swA)
		_ = sw.AddPort(2, swB)
		ctrl := open(t, sw)

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
	})
}

// A FLOW_MOD the switch refuses, or cannot parse, fails the next barrier:
// nothing staged with it is applied, and the channel serves the next commit.
func TestFlowModErrorSurfacesOnBarrier(t *testing.T) {
	overTransports(t, func(t *testing.T, open opener) {
		sw := vswitch.New("lsi", 1)
		ctrl := open(t, sw)
		if err := ctrl.InstallFlow(0, 5, 1, vswitch.MatchAll(), []vswitch.Action{vswitch.Output(1)}); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Barrier(); err != nil {
			t.Fatal(err)
		}
		table := sw.Flows()
		// A VLAN ID beyond 12 bits is refused by the switch.
		if err := ctrl.InstallFlow(0, 5, 2, vswitch.MatchAll(), []vswitch.Action{vswitch.Output(2)}); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.InstallFlow(0, 5, 2, vswitch.MatchAll(), []vswitch.Action{vswitch.PushVLAN(5000)}); err != nil {
			t.Fatal(err)
		}
		err := ctrl.Barrier()
		if err == nil || !strings.Contains(err.Error(), "push_vlan:5000 does not fit 12 bits") {
			t.Fatalf("barrier after a refused flow-mod = %v, want the 12-bit VLAN error", err)
		}
		if got := sw.Flows(); len(got) != 1 || got[0] != table[0] {
			t.Errorf("table after a refused commit = %v, want %v", got, table)
		}
		// An unparsable FLOW_MOD fails its barrier the same way.
		msg, _ := appendFlowMod(nil, 9, flowMod{Command: flowAdd, Match: vswitch.MatchAll().WithVLAN(7)})
		msg[len(msg)-1] = 0xff // the VLAN TLV's value spills past its section
		msg = append(msg, 0)
		binary.BigEndian.PutUint16(msg[2:4], uint16(len(msg)))
		binary.BigEndian.PutUint16(msg[headerLen+11:], 99)
		if err := ctrl.ch.send(msg); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Barrier(); err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Errorf("barrier after an unparsable flow-mod = %v, want a parse error", err)
		}
		if got := sw.Flows(); len(got) != 1 || got[0] != table[0] {
			t.Errorf("table after an unparsable flow-mod = %v, want %v", got, table)
		}
		// The channel still works: the next commit applies.
		if err := ctrl.InstallFlow(0, 5, 3, vswitch.MatchAll(), []vswitch.Action{vswitch.Output(3)}); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Barrier(); err != nil {
			t.Fatalf("barrier after recovery: %v", err)
		}
		if len(sw.Flows()) != 2 {
			t.Errorf("flows = %v, want the first entry and cookie 3's", sw.Flows())
		}
		if _, err := ctrl.FlowStats(); err != nil {
			t.Errorf("channel dead after error: %v", err)
		}
		// A table other than 0 never leaves the controller.
		if err := ctrl.InstallFlow(1, 5, 0, vswitch.MatchAll(), nil); err == nil {
			t.Error("flow-mod for table 1 accepted: the switch has one table")
		}
	})
}

// Commit replaces one cookie's whole entry set with one table publish and
// leaves every other cookie's entries alone; a commit of no entries deletes.
func TestCommitReplacesOneCookie(t *testing.T) {
	overTransports(t, func(t *testing.T, open opener) {
		sw := vswitch.New("lsi", 1)
		ctrl := open(t, sw)
		other := NewEntries(1)
		other.Add(1, vswitch.MatchAll().WithInPort(9), vswitch.Output(9))
		if err := ctrl.Commit(7, &other); err != nil {
			t.Fatal(err)
		}
		var ports [vswitch.NumStateBuckets]uint32
		for b := range ports {
			ports[b] = uint32(2 + b%3)
		}
		for round, n := range []int{3, 5, 2} {
			es := NewEntries(1) // undersized: Add grows it
			for i := 0; i < n; i++ {
				es.Add(10+i, vswitch.MatchAll().WithInPort(uint32(i+1)).WithVLAN(uint16(100+round)),
					vswitch.PopVLAN(), vswitch.SelectBucket(ports))
			}
			before := sw.Telemetry().Publishes
			if err := ctrl.Commit(1, &es); err != nil {
				t.Fatal(err)
			}
			if got := sw.Telemetry().Publishes - before; got != 1 {
				t.Errorf("round %d: %d publishes, want 1", round, got)
			}
			mine := 0
			for _, e := range sw.Flows() {
				if e.Cookie == 1 {
					mine++
					if want := fmt.Sprintf("dl_vlan=%d", 100+round); !strings.Contains(e.Match.String(), want) {
						t.Errorf("round %d: stale entry %v", round, e)
					}
					if got, want := e.Actions[1].String(), vswitch.SelectBucket(ports).String(); got != want {
						t.Errorf("round %d: action %s, want %s", round, got, want)
					}
				}
			}
			if mine != n || len(sw.Flows()) != n+1 {
				t.Errorf("round %d: %d entries under the cookie of %d, want %d of %d", round, mine, len(sw.Flows()), n, n+1)
			}
		}
		if err := ctrl.Commit(1, nil); err != nil {
			t.Fatal(err)
		}
		if f := sw.Flows(); len(f) != 1 || f[0].Cookie != 7 {
			t.Errorf("flows after deleting cookie 1 = %v, want cookie 7's entry alone", f)
		}
	})
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
	out, err := readMessage(&buf, new([headerLen]byte), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Xid != in.Xid || !bytes.Equal(out.Body, in.Body) {
		t.Errorf("round trip = %+v", out)
	}
}

func TestReadMessageRejectsBadVersion(t *testing.T) {
	raw := []byte{0x99, 0, 0, 8, 0, 0, 0, 1}
	if _, err := readMessage(bytes.NewReader(raw), new([headerLen]byte), nil); err == nil {
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
	// A prefix longer than 32 bits would make the switch's mask shift
	// negative.
	if _, err := decodeMatch(append(appendTLV(nil, oxmIPSrc, 5), 10, 0, 0, 1, 33)); err == nil {
		t.Error("a /33 prefix accepted")
	}
	// A select-bucket action carries exactly one port per bucket.
	for _, n := range []int{vswitch.NumStateBuckets - 1, vswitch.NumStateBuckets + 1} {
		if _, err := decodeActions(append(appendTLV(nil, actSelectBucket, 4*n), make([]byte, 4*n)...)); err == nil {
			t.Errorf("select-bucket action with %d ports accepted", n)
		}
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

// Commits, barriers and stats requests from several goroutines share one
// channel: each call gets its own reply, and every cookie ends up holding
// exactly its last commit.
func TestConcurrentCommits(t *testing.T) {
	overTransports(t, func(t *testing.T, open opener) {
		sw := vswitch.New("lsi", 1)
		ctrl := open(t, sw)
		const workers, rounds = 4, 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(cookie uint64) {
				defer wg.Done()
				for r := 1; r <= rounds; r++ {
					es := NewEntries(r % 3)
					for i := 0; i < r%3+1; i++ {
						es.Add(r, vswitch.MatchAll().WithInPort(uint32(cookie)).WithL4Dst(uint16(i)), vswitch.Output(uint32(r)))
					}
					if err := ctrl.Commit(cookie, &es); err != nil {
						t.Errorf("cookie %d round %d: %v", cookie, r, err)
						return
					}
					if _, err := ctrl.FlowStats(); err != nil {
						t.Errorf("cookie %d round %d: stats: %v", cookie, r, err)
						return
					}
					if err := ctrl.Barrier(); err != nil {
						t.Errorf("cookie %d round %d: barrier: %v", cookie, r, err)
						return
					}
				}
			}(uint64(w + 1))
		}
		wg.Wait()
		held := make(map[uint64]int)
		for _, e := range sw.Flows() {
			held[e.Cookie]++
			if e.Priority != rounds {
				t.Errorf("entry %v outlived its cookie's last commit", e)
			}
		}
		for c := uint64(1); c <= workers; c++ {
			if held[c] != rounds%3+1 {
				t.Errorf("cookie %d holds %d entries, want %d", c, held[c], rounds%3+1)
			}
		}
	})
}

// A request after Close fails at once with the same error over either
// transport.
func TestCallAfterClose(t *testing.T) {
	overTransports(t, func(t *testing.T, open opener) {
		ctrl := open(t, vswitch.New("lsi", 1))
		if err := ctrl.Close(); err != nil {
			t.Fatal(err)
		}
		es := NewEntries(1)
		es.Add(1, vswitch.MatchAll(), vswitch.Output(1))
		for what, err := range map[string]error{"barrier": ctrl.Barrier(), "commit": ctrl.Commit(1, &es)} {
			if err == nil || err.Error() != "openflow: controller closed" {
				t.Errorf("%s after Close = %v, want controller closed", what, err)
			}
		}
		if _, err := ctrl.FlowStats(); err == nil {
			t.Error("flow stats after Close succeeded")
		}
	})
}

// The two transports are one protocol: the same seeded sequences of
// InstallFlow, DeleteFlows, Commit, Barrier and FlowStats, refused entries
// included, leave the same table behind and return the same errors.
func TestTransportsAgree(t *testing.T) {
	refused := 0
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		sws := [2]*vswitch.Switch{vswitch.New("pipe", 1), vswitch.New("local", 1)}
		ctrls := [2]*Controller{pair(t, sws[0]), local(t, sws[1])}
		// entry draws one entry, a refused one (a VLAN ID past 12 bits)
		// one time in eight.
		entry := func() (int, vswitch.Match, []vswitch.Action) {
			actions := randomActions(r)
			if r.Intn(8) == 0 {
				actions = append(actions, vswitch.PushVLAN(uint16(4096+r.Intn(1000))))
			}
			return r.Intn(100), randomMatch(r), actions
		}
		for op := 0; op < 60; op++ {
			cookie := uint64(r.Intn(4))
			var errs [2]error
			var stats [2]int
			switch k := r.Intn(5); k {
			case 0:
				prio, m, actions := entry()
				table := 0
				if r.Intn(16) == 0 {
					table = 1
				}
				for i, c := range ctrls {
					errs[i] = c.InstallFlow(table, prio, cookie, m, actions)
				}
			case 1:
				for i, c := range ctrls {
					errs[i] = c.DeleteFlows(cookie)
				}
			case 2:
				es := [2]Entries{NewEntries(2), NewEntries(2)}
				for n := r.Intn(4); n > 0; n-- {
					prio, m, actions := entry()
					es[0].Add(prio, m, actions...)
					es[1].Add(prio, m, actions...)
				}
				for i, c := range ctrls {
					errs[i] = c.Commit(cookie, &es[i])
				}
			case 3:
				for i, c := range ctrls {
					errs[i] = c.Barrier()
				}
			case 4:
				for i, c := range ctrls {
					var st []FlowStat
					st, errs[i] = c.FlowStats()
					stats[i] = len(st)
				}
			}
			if errs[0] != nil {
				refused++
			}
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || stats[0] != stats[1] {
				t.Fatalf("seed %d op %d: pipe answered %v (%d stats), local %v (%d stats)", seed, op, errs[0], stats[0], errs[1], stats[1])
			}
			if a, b := fmt.Sprint(sws[0].Flows()), fmt.Sprint(sws[1].Flows()); a != b {
				t.Fatalf("seed %d op %d: tables differ:\npipe:  %s\nlocal: %s", seed, op, a, b)
			}
		}
	}
	t.Logf("%d refused calls", refused)
	if refused == 0 {
		t.Error("no call was refused: only successes were compared")
	}
}
