package nf

import (
	"testing"
	"time"

	"repro/internal/execenv"
	"repro/internal/netdev"
)

// manualClock is a controllable time source for shaper tests.
type manualClock struct{ t time.Duration }

func (c *manualClock) now() time.Time { return time.Unix(0, 0).Add(c.t) }

func TestShaperPolicesRate(t *testing.T) {
	// 8 Mbps, 1 KiB burst: at a standstill clock, exactly the burst
	// passes; advancing the clock refills rate*dt/8 bytes.
	clock := &manualClock{}
	s, err := newShaper(8, 1, clock.now) // 8 Mbps = 1e6 bytes/s; burst 1024 B
	if err != nil {
		t.Fatal(err)
	}

	frame := make([]byte, 512)
	frame[12], frame[13] = 0x08, 0x00
	// Burst allows two 512 B frames, then drops.
	for i := 0; i < 2; i++ {
		res, err := s.Process(0, frame)
		if err != nil || len(res.Emissions) != 1 {
			t.Fatalf("frame %d within burst dropped", i)
		}
	}
	if res, _ := s.Process(0, frame); len(res.Emissions) != 0 {
		t.Fatal("frame beyond burst passed")
	}
	// Advance 512 µs: refills 512 B at 1e6 B/s -> one more frame fits.
	clock.t += 512 * time.Microsecond
	if res, _ := s.Process(0, frame); len(res.Emissions) != 1 {
		t.Fatal("refilled tokens not granted")
	}
	if res, _ := s.Process(0, frame); len(res.Emissions) != 0 {
		t.Fatal("tokens double-spent")
	}
	passed, dropped := s.counters()
	if passed != 3 || dropped != 2 {
		t.Errorf("counters = %d/%d, want 3/2", passed, dropped)
	}
}

func TestShaperBurstCap(t *testing.T) {
	clock := &manualClock{}
	s, _ := newShaper(8, 1, clock.now)
	frame := make([]byte, 1024)
	// A very long idle period must not accumulate more than one burst.
	_, _ = s.Process(0, frame) // spends the initial burst
	clock.t += time.Hour
	if res, _ := s.Process(0, frame); len(res.Emissions) != 1 {
		t.Fatal("burst frame dropped")
	}
	if res, _ := s.Process(0, frame); len(res.Emissions) != 0 {
		t.Fatal("bucket exceeded burst cap after idle")
	}
}

func TestShaperBidirectional(t *testing.T) {
	clock := &manualClock{}
	s, _ := newShaper(1000, 64, clock.now)
	frame := make([]byte, 100)
	res, err := s.Process(1, frame)
	if err != nil || len(res.Emissions) != 1 || res.Emissions[0].Port != 0 {
		t.Fatalf("reverse direction broken: %+v, %v", res, err)
	}
	if _, err := s.Process(7, frame); err == nil {
		t.Error("bad port accepted")
	}
}

// TestShaperStartsFull: the bucket is full from construction, however long
// before the first frame that was, and holds exactly one burst.
func TestShaperStartsFull(t *testing.T) {
	clock := &manualClock{t: time.Hour}
	s, err := newShaper(8, 4, clock.now) // 4 KiB burst
	if err != nil {
		t.Fatal(err)
	}
	clock.t += time.Hour
	frame := make([]byte, 1024)
	for i := 0; i < 4; i++ {
		if res, err := s.Process(0, frame); err != nil || len(res.Emissions) != 1 {
			t.Fatalf("frame %d of the initial burst dropped (%v)", i, err)
		}
	}
	if res, _ := s.Process(0, frame); len(res.Emissions) != 0 {
		t.Fatal("frame beyond the initial burst passed")
	}
}

func TestShaperConfig(t *testing.T) {
	if _, err := NewShaperFromConfig(map[string]string{}); err == nil {
		t.Error("missing rate accepted")
	}
	if _, err := NewShaperFromConfig(map[string]string{"rate_mbps": "x"}); err == nil {
		t.Error("bad rate accepted")
	}
	for _, rate := range []string{"-5", "0", "NaN", "Inf", "+Inf", "-Inf", "1e303"} {
		if _, err := NewShaperFromConfig(map[string]string{"rate_mbps": rate}); err == nil {
			t.Errorf("rate %s accepted", rate)
		}
	}
	if _, err := NewShaperFromConfig(map[string]string{"rate_mbps": "10", "burst_kb": "x"}); err == nil {
		t.Error("bad burst accepted")
	}
	p, err := NewShaperFromConfig(map[string]string{"rate_mbps": "10", "burst_kb": "128"})
	if err != nil {
		t.Fatal(err)
	}
	if p.(*Shaper).burst != 128*1024 {
		t.Error("burst config ignored")
	}
}

// TestShaperIgnoresVirtualClockThroughRuntime: a shaper inside a runtime
// meters on its own clock, not on the modelled time its environment's
// clock reads. With its clock frozen, it passes exactly its burst, however
// much the runtimes on that environment clock have worked.
func TestShaperIgnoresVirtualClockThroughRuntime(t *testing.T) {
	clock := &execenv.VirtualClock{}
	start := func(name string, proc Processor) (*Runtime, *netdev.Port) {
		env, err := execenv.New(name, execenv.FlavorVM, execenv.Default(), clock)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(name, proc, env, 2)
		rt.Start()
		t.Cleanup(rt.Stop)
		in, out := netdev.NewPort(name+"-in"), netdev.NewPort(name+"-out")
		if err := netdev.Connect(in, rt.Port(0)); err != nil {
			t.Fatal(err)
		}
		if err := netdev.Connect(out, rt.Port(1)); err != nil {
			t.Fatal(err)
		}
		out.SetHandler(func(netdev.Frame) {})
		return rt, in
	}
	frozen := &manualClock{}
	s, _ := newShaper(100, 3, frozen.now) // 3 KiB burst: two 1500 B frames
	_, toShaper := start("shaper", s)
	_, toMonitor := start("monitor", NewMonitor())
	boot := clock.Now()

	frame := make([]byte, 1500)
	for i := 0; i < 100; i++ {
		for j := 0; j < 50; j++ {
			_ = toMonitor.Send(netdev.Frame{Data: frame})
		}
		_ = toShaper.Send(netdev.Frame{Data: frame})
	}
	if worked := clock.Now() - boot; worked < 5100*2*time.Microsecond {
		t.Fatalf("environment clock moved %v for 5100 VM frames: their work was not priced", worked)
	}
	if passed, dropped := s.counters(); passed != 2 || dropped != 98 {
		t.Errorf("shaper passed %d and dropped %d, want its 2-frame burst and 98", passed, dropped)
	}
}
