package nf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

// processorFunc adapts a function to Processor.
type processorFunc func(inPort int, frame []byte) (Result, error)

func (f processorFunc) Process(inPort int, frame []byte) (Result, error) { return f(inPort, frame) }

// ownershipRig is a processor behind a started Runtime whose ports lead to
// peers that keep every frame they receive; it records every frame the
// runtime recycles instead of pooling it.
type ownershipRig struct {
	rt       *Runtime
	peers    []*netdev.Port
	got      [][][]byte // per runtime port, the frames that left through it
	recycled [][]byte
}

func newOwnershipRig(t *testing.T, proc Processor, nPorts int) *ownershipRig {
	t.Helper()
	env, err := execenv.New("own", execenv.FlavorNative, execenv.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &ownershipRig{rt: NewRuntime("own", proc, env, nPorts), got: make([][][]byte, nPorts)}
	r.rt.recycle = func(b []byte) { r.recycled = append(r.recycled, b) }
	for i := 0; i < nPorts; i++ {
		i := i
		p := netdev.NewPort("peer")
		if err := netdev.Connect(p, r.rt.Port(i)); err != nil {
			t.Fatal(err)
		}
		p.SetHandler(func(f netdev.Frame) { r.got[i] = append(r.got[i], f.Data) })
		r.peers = append(r.peers, p)
	}
	r.rt.Start()
	t.Cleanup(r.rt.Stop)
	return r
}

// send delivers frame on the runtime's port in.
func (r *ownershipRig) send(t *testing.T, in int, frame []byte) {
	t.Helper()
	if err := r.peers[in].Send(netdev.Frame{Data: frame}); err != nil {
		t.Fatal(err)
	}
}

// timesRecycled counts the recycled frames sharing memory with b.
func (r *ownershipRig) timesRecycled(b []byte) int {
	n := 0
	for _, c := range r.recycled {
		if sameMemory(b, c) {
			n++
		}
	}
	return n
}

func pooledFrame(t *testing.T) []byte {
	t.Helper()
	f := udpFrame(t, ipA, ipB, 1, 2, 0)
	p := pkt.GetBuffer(len(f))
	copy(p, f)
	return p
}

func TestRuntimeRecyclesConsumedInputOnce(t *testing.T) {
	copying := processorFunc(func(_ int, frame []byte) (Result, error) {
		out := pkt.GetBuffer(len(frame))
		copy(out, frame)
		return Result{Emissions: []Emission{{Port: 1, Frame: out}}}, nil
	})
	r := newOwnershipRig(t, copying, 2)
	in := pooledFrame(t)
	r.send(t, 0, in)
	if n := r.timesRecycled(in); n != 1 || len(r.recycled) != 1 {
		t.Fatalf("input recycled %d times (%d recycles in all), want exactly once", n, len(r.recycled))
	}
	if len(r.got[1]) != 1 || sameMemory(r.got[1][0], in) {
		t.Fatalf("emission = %d frames, aliasing the input: the copy must leave, not the input", len(r.got[1]))
	}

	// A processor error consumes the input just the same.
	failing := processorFunc(func(int, []byte) (Result, error) { return Result{}, errors.New("no") })
	r = newOwnershipRig(t, failing, 2)
	in = pooledFrame(t)
	r.send(t, 0, in)
	if n := r.timesRecycled(in); n != 1 {
		t.Fatalf("input of a failed Process recycled %d times, want once", n)
	}
}

func TestRuntimeKeepsForwardedInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		emit func(frame []byte) []byte
	}{
		{"whole", func(f []byte) []byte { return f }},
		// An emission starting past the input's first byte still shares
		// its backing array.
		{"slice", func(f []byte) []byte { return f[pkt.EthernetHeaderLen:] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fwd := processorFunc(func(inPort int, frame []byte) (Result, error) {
				return Result{Emissions: []Emission{{Port: 1 - inPort, Frame: tc.emit(frame)}}}, nil
			})
			r := newOwnershipRig(t, fwd, 2)
			in := pooledFrame(t)
			r.send(t, 0, in)
			if len(r.recycled) != 0 {
				t.Fatalf("forwarded input recycled %d times, want never", len(r.recycled))
			}
			if len(r.got[1]) != 1 || !sameMemory(r.got[1][0], in) {
				t.Fatal("the input itself did not leave")
			}
		})
	}
}

func TestRuntimeRepeatedEmissionLeavesAsDistinctBuffers(t *testing.T) {
	distinct := func(t *testing.T, frames [][]byte) {
		t.Helper()
		for i := range frames {
			for j := i + 1; j < len(frames); j++ {
				if sameMemory(frames[i], frames[j]) {
					t.Fatalf("emissions %d and %d share one buffer", i, j)
				}
				if !bytes.Equal(frames[i], frames[j]) {
					t.Fatalf("emissions %d and %d differ", i, j)
				}
			}
		}
	}

	// A bridge flooding its input: the input leaves once, copies the rest
	// of the way, and nothing is recycled.
	b, err := NewBridge(3)
	if err != nil {
		t.Fatal(err)
	}
	r := newOwnershipRig(t, b, 3)
	in := pooledFrame(t)
	r.send(t, 0, in)
	if len(r.got[1]) != 1 || len(r.got[2]) != 1 {
		t.Fatalf("flood reached %d and %d frames on ports 1 and 2", len(r.got[1]), len(r.got[2]))
	}
	out := [][]byte{r.got[1][0], r.got[2][0]}
	distinct(t, out)
	if !sameMemory(out[0], in) || len(r.recycled) != 0 {
		t.Fatalf("flood: input must leave on the first port and not be recycled (%d recycles)", len(r.recycled))
	}

	// A processor emitting one buffer it built on both ports.
	twice := processorFunc(func(_ int, frame []byte) (Result, error) {
		c := pkt.GetBuffer(len(frame))
		copy(c, frame)
		return Result{Emissions: []Emission{{Port: 1, Frame: c}, {Port: 2, Frame: c}}}, nil
	})
	r = newOwnershipRig(t, twice, 3)
	in = pooledFrame(t)
	r.send(t, 0, in)
	distinct(t, [][]byte{r.got[1][0], r.got[2][0]})
	if n := r.timesRecycled(in); n != 1 || len(r.recycled) != 1 {
		t.Fatalf("input recycled %d times (%d recycles in all), want exactly once", n, len(r.recycled))
	}
}

// processorCase is one default NF fed one frame on one port.
type processorCase struct {
	name  string
	proc  Processor
	port  int
	frame []byte
}

// defaultProcessorCases builds every DefaultRegistry NF and, for each port
// that has traffic of its own, a frame the NF emits something for.
func defaultProcessorCases(t *testing.T) []processorCase {
	t.Helper()
	reg := DefaultRegistry()
	build := func(name string, cfg map[string]string) Processor {
		p, err := reg.Build(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain := udpFrame(t, ipA, ipB, 1111, 2222, 0)

	key := "000102030405060708090a0b0c0d0e0f10111213"
	ipsec := build("ipsec", map[string]string{"local": "192.0.2.1", "remote": "203.0.113.9", "spi": "4096", "key": key})
	peer := build("ipsec", map[string]string{"local": "203.0.113.9", "remote": "192.0.2.1", "spi": "4096", "key": key})
	sealed, err := peer.Process(IPsecPortPlain, plain)
	if err != nil || len(sealed.Emissions) != 1 {
		t.Fatalf("peer did not seal: %v", err)
	}

	ext := pkt.Addr{198, 51, 100, 1}
	nat := build("nat", map[string]string{"external_ip": ext.String()})
	res, err := nat.Process(NATPortInside, plain)
	if err != nil || len(res.Emissions) != 1 {
		t.Fatalf("nat did not translate: %v", err)
	}
	var h headers
	h.decode(res.Emissions[0].Frame)

	shaper := build("shaper", map[string]string{"rate_mbps": "100"})

	cases := []processorCase{
		{"ipsec", ipsec, IPsecPortPlain, plain},
		{"ipsec", ipsec, IPsecPortEncrypted, sealed.Emissions[0].Frame},
		{"firewall", build("firewall", nil), 0, plain},
		{"firewall", build("firewall", nil), 1, plain},
		{"nat", nat, NATPortInside, plain},
		{"nat", nat, NATPortOutside, udpFrame(t, ipB, ext, 2222, h.srcPort, 0)},
		{"bridge", build("bridge", nil), 0, plain},
		{"router", build("router", map[string]string{"routes": "10.0.0.0/8,1,02:02:02:02:02:02,04:04:04:04:04:04"}), 0, plain},
		{"monitor", build("monitor", nil), 0, plain},
		{"shaper", shaper, 0, plain},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.name] = true
	}
	for _, name := range reg.names() {
		if !covered[name] {
			t.Fatalf("NF %q has no case here", name)
		}
	}
	return cases
}

// TestProcessorsNeverWriteOrRetainInput holds every default NF to the
// Processor contract: Process leaves its input's bytes as they were, and
// what it emitted in a buffer of its own does not change when the input is
// overwritten afterwards (the Runtime recycles the input right after).
func TestProcessorsNeverWriteOrRetainInput(t *testing.T) {
	for _, c := range defaultProcessorCases(t) {
		in := append([]byte(nil), c.frame...)
		res, err := c.proc.Process(c.port, in)
		if err != nil || len(res.Emissions) == 0 {
			t.Fatalf("%s port %d: %d emissions, error %v", c.name, c.port, len(res.Emissions), err)
		}
		if !bytes.Equal(in, c.frame) {
			t.Errorf("%s port %d wrote to its input", c.name, c.port)
		}
		var own [][2][]byte // emitted frame, snapshot
		for _, e := range res.Emissions {
			if !sameMemory(e.Frame, in) {
				own = append(own, [2][]byte{e.Frame, append([]byte(nil), e.Frame...)})
			}
		}
		for i := range in {
			in[i] = 0xff
		}
		for _, o := range own {
			if !bytes.Equal(o[0], o[1]) {
				t.Errorf("%s port %d: an emission changed when the input was overwritten", c.name, c.port)
			}
		}
	}
}

// twinInto is an IntoProcessor that emits two frames per input toward the
// other port: the input itself and a pooled copy with its last byte set.
type twinInto struct{}

func (p twinInto) Process(inPort int, frame []byte) (Result, error) {
	return p.ProcessInto(inPort, frame, nil)
}

func (twinInto) ProcessInto(inPort int, frame []byte, out []Emission) (Result, error) {
	c := pkt.GetBuffer(len(frame))
	copy(c, frame)
	c[len(c)-1] = 1
	return Result{Emissions: append(out, Emission{Port: 1 - inPort, Frame: frame}, Emission{Port: 1 - inPort, Frame: c})}, nil
}

// TestRuntimeEmissionBufferUnderReentryAndConcurrency drives one runtime from
// two goroutines at once, and loops every frame back into it from inside
// its own send: the peer on port 1 answers the first emission of a frame by
// sending the next hop's frame into port 1 before the runtime's send
// returns. A frame is (id, hop, twin). Every id must come out as exactly
// its four frames — (hop 0, twin 0/1) on port 1 and (hop 1, twin 0/1) on
// port 0 — so an emission buffer shared by the nested or the concurrent
// receive shows up as a lost, duplicated or foreign frame.
func TestRuntimeEmissionBufferUnderReentryAndConcurrency(t *testing.T) {
	env, err := execenv.New("twin", execenv.FlavorNative, execenv.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime("twin", twinInto{}, env, 2)
	type key struct {
		port         int
		id           uint32
		hop, twinned byte
	}
	var mu sync.Mutex
	seen := map[key]int{}
	peers := make([]*netdev.Port, 2)
	for i := range peers {
		peers[i] = netdev.NewPort("peer")
		if err := netdev.Connect(peers[i], rt.Port(i)); err != nil {
			t.Fatal(err)
		}
	}
	record := func(port int, f netdev.Frame) key {
		k := key{port: port, id: binary.BigEndian.Uint32(f.Data), hop: f.Data[4], twinned: f.Data[len(f.Data)-1]}
		mu.Lock()
		seen[k]++
		mu.Unlock()
		return k
	}
	peers[0].SetHandler(func(f netdev.Frame) { record(0, f) })
	peers[1].SetHandler(func(f netdev.Frame) {
		if k := record(1, f); k.hop == 0 && k.twinned == 0 {
			next := pkt.GetBuffer(len(f.Data))
			copy(next, f.Data)
			next[4] = 1
			_ = peers[1].Send(netdev.Frame{Data: next, Hops: f.Hops})
		}
	})
	rt.Start()
	t.Cleanup(rt.Stop)

	const perSender, senders = 500, 2
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				f := pkt.GetBuffer(64)
				clear(f)
				binary.BigEndian.PutUint32(f, uint32(s*perSender+i))
				_ = peers[0].Send(netdev.Frame{Data: f})
			}
		}(s)
	}
	wg.Wait()
	if len(seen) != 4*perSender*senders {
		t.Errorf("%d distinct frames came out, want %d", len(seen), 4*perSender*senders)
	}
	for id := uint32(0); id < perSender*senders; id++ {
		for _, k := range []key{{1, id, 0, 0}, {1, id, 0, 1}, {0, id, 1, 0}, {0, id, 1, 1}} {
			if n := seen[k]; n != 1 {
				t.Fatalf("frame %+v came out %d times, want once", k, n)
			}
		}
	}
}
