package nf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/execenv"
	"repro/internal/netdev"
)

// TestReceiveChargesNothing guards the packet path: Runtime.receive only
// counts. It may not price, charge or touch the execution environment; the
// environment's clock prices the counts when it is read.
func TestReceiveChargesNothing(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "nf.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "receive" || fn.Recv == nil || len(fn.Recv.List[0].Names) != 1 {
			continue
		}
		found = true
		recv := fn.Recv.List[0].Names[0].Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				switch {
				case x.Name == "execenv":
					t.Errorf("%v: receive uses execenv.%s: the packet path only counts", fset.Position(sel.Pos()), sel.Sel.Name)
				case x.Name == recv && sel.Sel.Name == "env":
					t.Errorf("%v: receive uses %s.env: the packet path only counts", fset.Position(sel.Pos()), recv)
				}
			}
			return true
		})
	}
	if !found {
		t.Fatal("no Runtime.receive in nf.go: the guard parsed the wrong file")
	}
}

// cryptoEcho forwards every frame out of the other port and reports the
// crypto bytes the test sets before each send.
type cryptoEcho struct{ crypto int }

func (p *cryptoEcho) Process(inPort int, frame []byte) (Result, error) {
	return Result{Emissions: []Emission{{Port: 1 - inPort, Frame: frame}}, CryptoBytes: p.crypto}, nil
}

// TestRuntimeCountsPriceLikeProcessPacket is a seeded property test of the
// modelled time: runtimes of every flavor on one clock, sent frames of
// random sizes and crypto byte counts, read what twin environments on a
// second clock read when charged each packet with ProcessPacket — within
// 1 ns per packet, the remainder each per-packet charge truncates, and
// exactly when every term is integral (1500 B frames). A reading never
// goes down, across Stop and a restart too.
func TestRuntimeCountsPriceLikeProcessPacket(t *testing.T) {
	for _, c := range []struct {
		name  string
		size  func(*rand.Rand) int
		exact bool
	}{
		{"random-sizes", func(r *rand.Rand) int { return 60 + r.Intn(1541) }, false},
		{"mtu", func(*rand.Rand) int { return 1500 }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			clock, twinClock := &execenv.VirtualClock{}, &execenv.VirtualClock{}
			type lane struct {
				rt   *Runtime
				proc *cryptoEcho
				in   *netdev.Port
				twin *execenv.Env
			}
			var lanes []lane
			for _, fl := range []execenv.Flavor{execenv.FlavorNative, execenv.FlavorDocker, execenv.FlavorVM, execenv.FlavorDPDK} {
				env, err := execenv.New(string(fl), fl, execenv.Default(), clock)
				if err != nil {
					t.Fatal(err)
				}
				twin, _ := execenv.New(string(fl), fl, execenv.Default(), twinClock)
				twin.Start(nil)
				l := lane{proc: &cryptoEcho{}, in: netdev.NewPort(string(fl) + "-in"), twin: twin}
				l.rt = NewRuntime(string(fl), l.proc, env, 2)
				out := netdev.NewPort(string(fl) + "-out")
				if err := netdev.Connect(l.in, l.rt.Port(0)); err != nil {
					t.Fatal(err)
				}
				if err := netdev.Connect(out, l.rt.Port(1)); err != nil {
					t.Fatal(err)
				}
				out.SetHandler(func(netdev.Frame) {})
				l.rt.Start()
				lanes = append(lanes, l)
			}
			buf := make([]byte, 1600)
			packets := 0
			var last time.Duration
			check := func(when string) {
				t.Helper()
				got, want := clock.Now(), twinClock.Now()
				if got < last {
					t.Fatalf("%s: reading went down from %v to %v", when, last, got)
				}
				last = got
				slack := time.Duration(packets)
				if c.exact {
					slack = 0
				}
				if got < want || got-want > slack {
					t.Fatalf("%s: clock = %v, twin charged %v over %d packets", when, got, want, packets)
				}
			}
			send := func(n int) {
				for i := 0; i < n; i++ {
					l := lanes[rng.Intn(len(lanes))]
					frame := buf[:c.size(rng)]
					l.proc.crypto = rng.Intn(len(frame) + 1)
					if err := l.in.Send(netdev.Frame{Data: frame}); err != nil {
						t.Fatal(err)
					}
					l.twin.ProcessPacket(frame, l.proc.crypto)
					packets++
					if rng.Intn(100) == 0 {
						check("while sending")
					}
				}
			}
			send(2000)
			check("after sending")
			for _, l := range lanes[:2] {
				l.rt.Stop()
				check("after a stop")
			}
			// A restart charges the start-up again, then prices only new
			// work.
			lanes[0].rt.Start()
			lanes[0].twin.Stop()
			lanes[0].twin.Start(nil)
			lanes = lanes[:1]
			send(500)
			check("after a restart")
			lanes[0].rt.Stop()
			check("after the last stop")
		})
	}
}

// TestClockReadsWhileRuntimesWork reads a clock while one runtime on it
// processes frames and another is stopped and restarted: no reading goes
// down. Run it under -race.
func TestClockReadsWhileRuntimesWork(t *testing.T) {
	clock := &execenv.VirtualClock{}
	start := func(name string) (*Runtime, *netdev.Port) {
		env, _ := execenv.New(name, execenv.FlavorVM, execenv.Default(), clock)
		rt := NewRuntime(name, &cryptoEcho{crypto: 100}, env, 2)
		in, out := netdev.NewPort(name+"-in"), netdev.NewPort(name+"-out")
		if err := netdev.Connect(in, rt.Port(0)); err != nil {
			t.Fatal(err)
		}
		if err := netdev.Connect(out, rt.Port(1)); err != nil {
			t.Fatal(err)
		}
		out.SetHandler(func(netdev.Frame) {})
		rt.Start()
		t.Cleanup(rt.Stop)
		return rt, in
	}
	_, busy := start("busy")
	flapping, toFlapping := start("flapping")
	frame := make([]byte, 1500)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 2000; i++ {
			_ = busy.Send(netdev.Frame{Data: frame})
			_ = toFlapping.Send(netdev.Frame{Data: frame})
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				flapping.Stop()
				flapping.Start()
			}
		}
	}()
	var last time.Duration
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		now := clock.Now()
		if now < last {
			t.Errorf("reading went down from %v to %v", last, now)
		}
		last = now
	}
	wg.Wait()
}
