package vswitch

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// TestActionsNeverWriteBorrowedFrame sends frames through entries that edit
// them and checks both sides of the lending contract: the sender's slice
// reads as it was sent, and every output carries the frame as the actions
// before it left it. A set-MAC on the inline lane once rewrote the sender's
// buffer. The cases cover a MAC rewrite, a tag pushed and popped around two
// outputs, a frame larger than a pooled buffer, and an edit after the
// coalescer sent mid-burst because a 17th egress port came up. The host on
// port 18 scribbles over every pooled buffer it can draw, so an edit buffer
// given back to the pool before its frame's actions end is caught.
func TestActionsNeverWriteBorrowedFrame(t *testing.T) {
	mac4 := pkt.MAC{4, 4, 4, 4, 4, 4}
	mac5 := pkt.MAC{5, 5, 5, 5, 5, 5}
	withDst := func(f []byte, m pkt.MAC) []byte {
		out := bytes.Clone(f)
		copy(out[0:6], m[:])
		return out
	}
	small := frame(t, 0, 80)
	jumbo, err := pkt.BuildFrame(pkt.FrameSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1000, DstPort: 80, PayloadLen: pkt.FrameBufferSize + 500})
	if err != nil {
		t.Fatal(err)
	}
	wide := []Action{PushVLAN(7)}
	for p := uint32(2); p <= 18; p++ {
		wide = append(wide, Output(p))
	}
	wide = append(wide, PopVLAN(), SetEthDst(mac5), Output(19))
	wideWant := map[uint32][]byte{19: withDst(small, mac5)}
	for p := uint32(2); p <= 17; p++ {
		wideWant[p] = pkt.PushVLAN(small, 7)
	}
	cases := []struct {
		name    string
		in      []byte
		actions []Action
		want    map[uint32][]byte // egress port -> the frame it must carry
	}{
		{"set-mac", small, []Action{SetEthDst(mac4), SetEthSrc(mac5), Output(2)},
			map[uint32][]byte{2: func() []byte { f := withDst(small, mac4); copy(f[6:12], mac5[:]); return f }()}},
		{"push-output-pop-output", small, []Action{PushVLAN(100), Output(2), PopVLAN(), Output(3)},
			map[uint32][]byte{2: pkt.PushVLAN(small, 100), 3: small}},
		{"jumbo", jumbo, []Action{PushVLAN(100), Output(2), PopVLAN(), SetEthDst(mac4), Output(3)},
			map[uint32][]byte{2: pkt.PushVLAN(jumbo, 100), 3: withDst(jumbo, mac4)}},
		{"edit-after-mid-burst-send", small, wide, wideWant},
	}
	for _, workers := range laneModes {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				sw := NewOptions("lsi", 1, Options{Workers: workers})
				t.Cleanup(sw.Close)
				hosts := rig(t, sw, 19)
				scribble := func(netdev.Frame) {
					b := pkt.GetBuffer(pkt.FrameBufferSize)
					for i := range b {
						b[i] = 0xee
					}
				}
				hosts[17].SetHandler(scribble)
				hosts[17].SetBatchHandler(func(fs []netdev.Frame) { scribble(fs[0]) })
				mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: c.actions})
				sent := bytes.Clone(c.in)
				const n = 3
				burst := make([]netdev.Frame, n)
				for i := range burst {
					burst[i] = netdev.Frame{Data: sent}
				}
				if _, err := hosts[0].SendBatch(burst); err != nil {
					t.Fatal(err)
				}
				drain(sw, n)
				if !bytes.Equal(sent, c.in) {
					t.Fatalf("the sender's frame was rewritten:\n sent %x\n  now %x", c.in, sent)
				}
				for port, want := range c.want {
					for i := 0; i < n; i++ {
						f, ok := hosts[port-1].TryRecv()
						if !ok {
							t.Fatalf("port %d carried %d of %d frames", port, i, n)
						}
						if !bytes.Equal(f.Data, want) {
							t.Fatalf("port %d, frame %d:\n got %x\nwant %x", port, i, f.Data, want)
						}
					}
				}
			})
		}
	}
}
