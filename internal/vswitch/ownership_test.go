package vswitch

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// ownershipRig is a switch forwarding port 1 to port 2, with port 1
// attached owning or borrowing and a sink behind port 2 that owns what it
// gets, as an NF runtime or a traffic sink does. It returns the switch and
// the host end of port 1.
func ownershipRig(t *testing.T, workers int, owning bool) (*Switch, *netdev.Port) {
	t.Helper()
	sw := NewOptions("own", 1, Options{Workers: workers})
	t.Cleanup(sw.Close)
	host, in := netdev.Veth("host", "sw")
	attach := sw.AddPort
	if owning {
		attach = sw.AddOwningPort
	}
	if err := attach(1, in); err != nil {
		t.Fatal(err)
	}
	sink, out := netdev.Veth("sink", "sw")
	if err := sw.AddPort(2, out); err != nil {
		t.Fatal(err)
	}
	sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data) })
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	return sw, host
}

// waitProcessed waits until n frames have left the switch: behind worker
// rings a send returns once the frame is steered.
func waitProcessed(t *testing.T, sw *Switch, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); sw.PacketsProcessed() < n; time.Sleep(10 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames left the switch", sw.PacketsProcessed(), n)
		}
	}
}

// handedOut reports whether one of the next two pooled buffers is b's; the
// two go straight back. Two, because the egress copy put by the sink may
// come first.
func handedOut(b []byte) bool {
	c, d := pkt.GetBuffer(64), pkt.GetBuffer(64)
	defer pkt.PutBuffer(c)
	defer pkt.PutBuffer(d)
	return &c[0] == &b[0] || &d[0] == &b[0]
}

// TestOwningPortReturnsEachBuffer: a port attached with AddOwningPort
// returns every buffer it receives, malformed frames' too, once the burst
// has left, inline and behind worker rings. Under the poolcheck tag the
// count is exact (gets = puts) and a second put panics; in the default
// build the sent buffer must come back out of the pool.
func TestOwningPortReturnsEachBuffer(t *testing.T) {
	tmpl := frame(t, 0, 80)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sw, host := ownershipRig(t, workers, true)
			base, exact := outstanding()
			const n = 200
			returned := 0
			for i := 0; i < n; i++ {
				b := pkt.GetBuffer(len(tmpl))
				copy(b, tmpl)
				if i%10 == 9 {
					b = b[:5] // malformed
				}
				if err := host.Send(netdev.Frame{Data: b}); err != nil {
					t.Fatal(err)
				}
				waitProcessed(t, sw, uint64(i+1))
				if handedOut(b) {
					returned++
				}
			}
			if now, _ := outstanding(); exact && now != base {
				t.Errorf("%d buffers outstanding after %d frames, want 0", now-base, n)
			}
			if returned == 0 {
				t.Errorf("none of %d sent buffers came back out of the pool", n)
			}
			if got := sw.Malformed(); got != n/10 {
				t.Errorf("malformed = %d, want %d", got, n/10)
			}
		})
	}
}

// TestBorrowingAttachKeepsTemplates: a port attached with AddPort, and
// Inject, leave the sender its frame. A pooled template re-sent 1 000 times
// stays byte-identical and is never handed out by the pool.
func TestBorrowingAttachKeepsTemplates(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, via := range []string{"AddPort", "Inject"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, via), func(t *testing.T) {
				sw, host := ownershipRig(t, workers, false)
				want := frame(t, 0, 80)
				tmpl := pkt.GetBuffer(len(want))
				copy(tmpl, want)
				defer pkt.PutBuffer(tmpl)
				base, exact := outstanding()
				const n = 1000
				for i := 0; i < n; i++ {
					if via == "Inject" {
						sw.Inject(1, tmpl)
					} else if err := host.Send(netdev.Frame{Data: tmpl}); err != nil {
						t.Fatal(err)
					}
					waitProcessed(t, sw, uint64(i+1))
					if handedOut(tmpl) {
						t.Fatalf("send %d: the template was handed out by the pool", i)
					}
				}
				if !bytes.Equal(tmpl, want) {
					t.Error("the template changed")
				}
				if now, _ := outstanding(); exact && now != base {
					t.Errorf("%d buffers outstanding after %d frames, want 0", now-base, n)
				}
			})
		}
	}
}
