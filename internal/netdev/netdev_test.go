package netdev

import (
	"sync"
	"testing"
)

func TestVethDelivery(t *testing.T) {
	a, b := Veth("a", "b")
	if err := a.Send(Frame{Data: []byte("hello")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	f, ok := b.TryRecv()
	if !ok {
		t.Fatal("no frame queued on peer")
	}
	if string(f.Data) != "hello" {
		t.Errorf("data = %q", f.Data)
	}
	if f.Hops != 1 {
		t.Errorf("hops = %d, want 1", f.Hops)
	}
}

func TestHandlerSynchronousDelivery(t *testing.T) {
	a, b := Veth("a", "b")
	var got []byte
	b.SetHandler(func(f Frame) { got = f.Data })
	if err := a.Send(Frame{Data: []byte("sync")}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "sync" {
		t.Errorf("handler not invoked synchronously, got %q", got)
	}
}

func TestSendUnconnected(t *testing.T) {
	p := NewPort("lonely")
	if err := p.Send(Frame{Data: []byte("x")}); err != ErrNotConnected {
		t.Errorf("err = %v, want ErrNotConnected", err)
	}
	if p.Stats().TxDropped != 1 {
		t.Error("tx drop not counted")
	}
}

func TestPortDown(t *testing.T) {
	a, b := Veth("a", "b")
	a.SetUp(false)
	if err := a.Send(Frame{Data: []byte("x")}); err != ErrPortDown {
		t.Errorf("err = %v, want ErrPortDown", err)
	}
	a.SetUp(true)
	b.SetUp(false)
	if err := a.Send(Frame{Data: []byte("x")}); err != nil {
		t.Errorf("sender should not see rx-side drop, got %v", err)
	}
	if b.Stats().RxDropped != 1 {
		t.Error("rx drop not counted on down port")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	a := NewPort("a")
	b := NewPortQueueLen("b", 2)
	if err := Connect(a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Send(Frame{Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.RxPackets != 2 || st.RxDropped != 3 {
		t.Errorf("stats = %+v, want 2 rx / 3 dropped", st)
	}
}

func TestHopLimit(t *testing.T) {
	a, _ := Veth("a", "b")
	f := Frame{Data: []byte("x"), Hops: MaxHops}
	if err := a.Send(f); err != ErrHopLimit {
		t.Errorf("err = %v, want ErrHopLimit", err)
	}
}

func TestForwardingLoopTerminates(t *testing.T) {
	// Two ports that blindly forward to each other must stop at MaxHops
	// rather than recurse forever.
	a, b := Veth("a", "b")
	c, d := Veth("c", "d")
	// b forwards to c, d forwards back to a's peer side: build a loop
	// a -> b -> (handler) c -> d -> (handler) a ...
	b.SetHandler(func(f Frame) { _ = c.Send(f) })
	d.SetHandler(func(f Frame) { _ = a.Send(f) })
	_ = a.Send(Frame{Data: []byte("loop")})
	// Reaching this line at all proves termination; check counters sane.
	if a.Stats().TxPackets == 0 {
		t.Error("no traffic recorded")
	}
}

func TestDisconnectAndReconnect(t *testing.T) {
	a, b := Veth("a", "b")
	Disconnect(a)
	if a.Peer() != nil || b.Peer() != nil {
		t.Fatal("disconnect did not clear both peers")
	}
	c := NewPort("c")
	if err := Connect(a, c); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if err := a.Send(Frame{Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.TryRecv(); !ok {
		t.Error("frame not delivered to new peer")
	}
}

func TestConnectErrors(t *testing.T) {
	a, b := Veth("a", "b")
	c := NewPort("c")
	if err := Connect(a, c); err == nil {
		t.Error("connected an already-connected port")
	}
	if err := Connect(c, c); err == nil {
		t.Error("connected a port to itself")
	}
	if err := Connect(nil, b); err == nil {
		t.Error("connected nil port")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := Frame{Data: []byte{1, 2, 3}, Hops: 7}
	g := f.Clone()
	g.Data[0] = 9
	if f.Data[0] != 1 {
		t.Error("clone aliases original data")
	}
	if g.Hops != 7 {
		t.Error("clone lost hop count")
	}
}

func TestConcurrentSendersAreSafe(t *testing.T) {
	a, b := Veth("a", "b")
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(Frame) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = a.Send(Frame{Data: []byte("z")})
			}
		}()
	}
	wg.Wait()
	if count != 800 {
		t.Errorf("delivered %d, want 800", count)
	}
	if a.Stats().TxPackets != 800 {
		t.Errorf("tx counter = %d", a.Stats().TxPackets)
	}
}

func TestSendBatchSynchronousDelivery(t *testing.T) {
	a, b := Veth("a", "b")
	var bursts [][]Frame
	b.SetBatchHandler(func(fs []Frame) {
		burst := make([]Frame, len(fs))
		copy(burst, fs)
		bursts = append(bursts, burst)
	})
	frames := make([]Frame, 10)
	for i := range frames {
		frames[i] = Frame{Data: []byte{byte(i)}}
	}
	n, err := a.SendBatch(frames)
	if err != nil || n != 10 {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	if len(bursts) != 1 || len(bursts[0]) != 10 {
		t.Fatalf("batch handler saw %d bursts", len(bursts))
	}
	if bursts[0][3].Hops != 1 {
		t.Errorf("hops = %d, want 1", bursts[0][3].Hops)
	}
	st := a.Stats()
	if st.TxPackets != 10 || st.TxBytes != 10 {
		t.Errorf("tx stats = %+v", st)
	}
	if rst := b.Stats(); rst.RxPackets != 10 {
		t.Errorf("rx stats = %+v", rst)
	}
}

func TestSendBatchFallsBackToSingleHandler(t *testing.T) {
	a, b := Veth("a", "b")
	count := 0
	b.SetHandler(func(Frame) { count++ })
	if n, err := a.SendBatch(make([]Frame, 7)); err != nil || n != 7 {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	if count != 7 {
		t.Errorf("handler ran %d times, want 7", count)
	}
}

func TestSendBatchQueueOverflow(t *testing.T) {
	a := NewPort("a")
	b := NewPortQueueLen("b", 3)
	if err := Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if n, err := a.SendBatch(make([]Frame, 8)); err != nil || n != 8 {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	st := b.Stats()
	if st.RxPackets != 3 || st.RxDropped != 5 {
		t.Errorf("stats = %+v, want 3 rx / 5 dropped", st)
	}
}

func TestSendBatchErrors(t *testing.T) {
	p := NewPort("lonely")
	if _, err := p.SendBatch(make([]Frame, 2)); err != ErrNotConnected {
		t.Errorf("err = %v, want ErrNotConnected", err)
	}
	if p.Stats().TxDropped != 2 {
		t.Error("whole burst should count as tx-dropped")
	}
	a, _ := Veth("a", "b")
	a.SetUp(false)
	if _, err := a.SendBatch(make([]Frame, 2)); err != ErrPortDown {
		t.Errorf("err = %v, want ErrPortDown", err)
	}
	if n, err := a.SendBatch(nil); n != 0 || err != nil {
		t.Errorf("empty batch = %d, %v", n, err)
	}
}

func TestSendBatchHopLimitDropsOnlyViolators(t *testing.T) {
	a, b := Veth("a", "b")
	frames := []Frame{
		{Data: []byte("ok")},
		{Data: []byte("looped"), Hops: MaxHops},
		{Data: []byte("ok2")},
	}
	n, err := a.SendBatch(frames)
	if err != ErrHopLimit {
		t.Errorf("err = %v, want ErrHopLimit", err)
	}
	if n != 2 {
		t.Errorf("sent = %d, want 2", n)
	}
	if st := b.Stats(); st.RxPackets != 2 {
		t.Errorf("peer received %d", st.RxPackets)
	}
}

// TestStatsSurviveDisconnect pins the derived-RX accounting: RX counters are
// reconstructed from the peer's TX counters while a link is up and folded
// into a history when the cable is pulled, so pulling it must not lose them
// and a new link must accumulate on top.
func TestStatsSurviveDisconnect(t *testing.T) {
	a, b := Veth("a", "b")
	for i := 0; i < 4; i++ {
		if err := a.Send(Frame{Data: make([]byte, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.RxPackets != 4 || st.RxBytes != 40 {
		t.Fatalf("stats before disconnect = %+v, want rx 4 pkts/40 B", st)
	}
	Disconnect(a)
	if st := b.Stats(); st.RxPackets != 4 || st.RxBytes != 40 {
		t.Errorf("stats after disconnect = %+v, want rx 4 pkts/40 B preserved", st)
	}
	c := NewPort("c")
	if err := Connect(b, c); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Frame{Data: make([]byte, 5)}); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.RxPackets != 5 || st.RxBytes != 45 {
		t.Errorf("stats after reconnect = %+v, want rx 5 pkts/45 B", st)
	}
}

func TestStatsString(t *testing.T) {
	a, b := Veth("a", "b")
	_ = a.Send(Frame{Data: make([]byte, 100)})
	_ = b // keep
	if s := a.Stats().String(); s == "" {
		t.Error("empty stats string")
	}
}

// TestHandlerRemovedRevertsToQueue pins that a port which only ever had a
// handler (so never allocated its RX ring) queues again once the handler is
// removed, with the capacity it was created with.
func TestHandlerRemovedRevertsToQueue(t *testing.T) {
	a := NewPort("a")
	b := NewPortQueueLen("b", 4)
	if err := Connect(a, b); err != nil {
		t.Fatal(err)
	}
	handled := 0
	b.SetHandler(func(Frame) { handled++ })
	if err := a.Send(Frame{Data: []byte("h")}); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times, want 1", handled)
	}
	b.SetHandler(nil)
	for i := 0; i < 3; i++ {
		if err := a.Send(Frame{Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := a.SendBatch(make([]Frame, 6)); err != nil || n != 6 {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	queued := 0
	for {
		if _, ok := b.TryRecv(); !ok {
			break
		}
		queued++
	}
	if queued != b.QueueCap() {
		t.Errorf("dequeued %d frames, want QueueCap %d", queued, b.QueueCap())
	}
	if st := b.Stats(); st.RxDropped != 9-4 { // 3 + 6 frames sent, 4 queued
		t.Errorf("RxDropped = %d, want 5", st.RxDropped)
	}
}

// TestConcurrentFirstQueueKeepsOneRing races eight senders into a fresh
// handler-less port, so several may find its RX ring missing at once. Every
// frame sent must be either dequeued or counted as dropped: a frame lost to
// a second, overwritten ring would be neither.
func TestConcurrentFirstQueueKeepsOneRing(t *testing.T) {
	const senders, perSender, burst = 8, 64, 8
	a := NewPort("a")
	b := NewPortQueueLen("b", 100)
	if err := Connect(a, b); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(batch bool) {
			defer wg.Done()
			<-start
			if batch {
				for i := 0; i < perSender; i += burst {
					_, _ = a.SendBatch(make([]Frame, burst))
				}
				return
			}
			for i := 0; i < perSender; i++ {
				_ = a.Send(Frame{})
			}
		}(g%2 == 1)
	}
	close(start)
	wg.Wait()
	var got uint64
	for {
		if _, ok := b.TryRecv(); !ok {
			break
		}
		got++
	}
	dropped := b.Stats().RxDropped
	if got+dropped != senders*perSender {
		t.Errorf("dequeued %d + dropped %d = %d, want %d sent", got, dropped, got+dropped, senders*perSender)
	}
	if got != uint64(b.QueueCap()) {
		t.Errorf("dequeued %d, want a full ring of %d", got, b.QueueCap())
	}
}
