package pkt

import (
	"bytes"
	"testing"
)

// reserialize writes a decoded packet's layers back to bytes: checksums as
// found, length fields recomputed — the serializer emits neither IPv4 nor TCP
// options, so a header that carried some comes back shorter than its length
// field said. The bytes a terminal layer left undecoded ride along as a
// payload.
func reserialize(t *testing.T, p *Packet) []byte {
	t.Helper()
	var stack []SerializableLayer
	for _, l := range p.Layers() {
		sl, ok := l.(SerializableLayer)
		if !ok {
			t.Fatalf("decoded layer %v cannot serialize", l.LayerType())
		}
		stack = append(stack, sl)
	}
	if last := p.Layers()[len(p.Layers())-1]; last.LayerType() != LayerTypePayload && len(last.LayerPayload()) > 0 {
		stack = append(stack, Payload(last.LayerPayload()))
	}
	out, err := Serialize(SerializeOptions{FixLengths: true}, stack...)
	if err != nil {
		t.Fatalf("%v decoded but does not serialize: %v", p, err)
	}
	return out
}

// FuzzNewPacket throws arbitrary bytes at the Ethernet decoder, seeded with
// the frame shapes of the round-trip properties (property_test.go). Whatever
// arrives must decode without a panic into layers that cover the input or end
// in a DecodeFailure; and a clean decode must be stable: serializing the
// layers and decoding the result again yields the same layer stack and the
// same bytes.
func FuzzNewPacket(f *testing.F) {
	for _, spec := range []FrameSpec{
		{SrcPort: 1000, DstPort: 80, PayloadLen: 16, PayloadByte: 0x42},
		{VLANID: 42, SrcPort: 1000, DstPort: 80, PayloadLen: 16},
		{VLANID: 4094, SrcPort: 65535, DstPort: 1},
		{SrcPort: 53, DstPort: 53, PayloadLen: 255, PayloadByte: 0xff},
	} {
		spec.SrcMAC, spec.DstMAC, spec.SrcIP, spec.DstIP = macA, macB, Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}
		frame := MustBuildFrame(spec)
		f.Add(frame)
		f.Add(frame[:EthernetHeaderLen])   // header only
		f.Add(frame[:EthernetHeaderLen+3]) // truncated next header
		f.Add(frame[:len(frame)-spec.PayloadLen/2-1])
	}
	esp, err := Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&Ethernet{SrcMAC: macA, DstMAC: macB, EthernetType: EthernetTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtocolESP, SrcIP: Addr{192, 0, 2, 1}, DstIP: Addr{203, 0, 113, 9}},
		&ESP{SPI: 4096, Seq: 7}, Payload([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(esp)
	arp, err := Serialize(SerializeOptions{},
		&Ethernet{SrcMAC: macA, DstMAC: MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EthernetType: EthernetTypeARP},
		&ARP{Operation: 1, SenderMAC: macA, SenderIP: Addr{10, 0, 0, 1}, TargetIP: Addr{10, 0, 0, 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(arp)
	// IPv4 options and a total length below the header: what the fuzzer found
	// the serializer cannot reproduce verbatim.
	f.Add([]byte("000000000000\b\x00J0\x00\x1800000000000000000000000000000000000000000"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x81, 0x00}) // VLAN EtherType, tag missing

	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewPacket(data, LayerTypeEthernet, Default)
		if len(data) == 0 {
			return
		}
		if len(p.Layers()) == 0 {
			t.Fatalf("%d bytes decoded to no layer at all", len(data))
		}
		if p.ErrorLayer() != nil {
			return
		}
		if len(data) < EthernetHeaderLen {
			t.Fatalf("%d-byte frame decoded cleanly, the Ethernet header is %d bytes", len(data), EthernetHeaderLen)
		}
		once := reserialize(t, p)
		p2 := NewPacket(once, LayerTypeEthernet, Default)
		if p2.ErrorLayer() != nil {
			t.Fatalf("%v re-encoded to bytes that fail to decode: %v", p, p2.ErrorLayer().Err)
		}
		if len(p2.Layers()) != len(p.Layers()) {
			t.Fatalf("layer stack changed across a round trip: %v then %v", p, p2)
		}
		for i, l := range p.Layers() {
			if p2.Layers()[i].LayerType() != l.LayerType() {
				t.Fatalf("layer stack changed across a round trip: %v then %v", p, p2)
			}
		}
		if twice := reserialize(t, p2); !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not stable:\n first %x\nsecond %x", once, twice)
		}
	})
}

// FuzzVLANTag throws arbitrary frames and IDs at the 802.1Q edits. Nothing
// may panic or write to its input. A frame of at least an Ethernet header
// takes a pushed tag that reads back as the ID's low 12 bits and pops back
// to the original bytes; an untagged frame is left as is by pop and retag,
// and retagging a tagged frame back to its old ID restores it.
func FuzzVLANTag(f *testing.F) {
	for _, spec := range []FrameSpec{
		{SrcPort: 1000, DstPort: 80, PayloadLen: 16},
		{VLANID: 42, SrcPort: 1000, DstPort: 80, PayloadLen: 16},
		{VLANID: 4094, SrcPort: 65535, DstPort: 1},
	} {
		spec.SrcMAC, spec.DstMAC, spec.SrcIP, spec.DstIP = macA, macB, Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}
		frame := MustBuildFrame(spec)
		f.Add(frame, uint16(7))
		f.Add(frame[:EthernetHeaderLen], uint16(0xffff))
	}
	prio := MustBuildFrame(FrameSpec{SrcMAC: macA, DstMAC: macB, VLANID: 42, SrcIP: Addr{10, 0, 0, 1}, DstIP: Addr{10, 0, 0, 2}})
	prio[14] |= 0xf0 // priority 7, drop eligible: a retag keeps both
	f.Add(prio, uint16(3000))
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x81}, uint16(100))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x81, 0x00}, uint16(4095)) // VLAN EtherType, tag missing

	f.Fuzz(func(t *testing.T, frame []byte, id uint16) {
		orig := bytes.Clone(frame)
		old, tagged := VLANTag(frame)
		pushed := PushVLAN(frame, id)
		popped := PopVLANInPlace(bytes.Clone(frame))
		retagged := RetagVLAN(frame, id)
		if !bytes.Equal(frame, orig) {
			t.Fatalf("an edit wrote to its input: %x became %x", orig, frame)
		}
		if len(frame) < EthernetHeaderLen {
			if !bytes.Equal(pushed, frame) {
				t.Fatalf("a %d-byte frame was tagged", len(frame))
			}
			return
		}
		if got, ok := VLANTag(pushed); !ok || got != id&0x0fff {
			t.Fatalf("pushed %d, read back %d (tagged %v)", id, got, ok)
		}
		if back := PopVLANInPlace(pushed); !bytes.Equal(back, frame) {
			t.Fatalf("pop(push(f)) != f:\n f %x\n   %x", frame, back)
		}
		if !tagged {
			if !bytes.Equal(popped, frame) || !bytes.Equal(retagged, frame) {
				t.Fatal("pop or retag changed an untagged frame")
			}
			return
		}
		if len(popped) != len(frame)-VLANHeaderLen {
			t.Fatalf("pop left %d of %d bytes", len(popped), len(frame))
		}
		if got, ok := VLANTag(retagged); !ok || got != id&0x0fff {
			t.Fatalf("retagged to %d, read back %d", id, got)
		}
		if back := RetagVLAN(retagged, old); !bytes.Equal(back, frame) {
			t.Fatalf("retag touched more than the VLAN ID:\n f %x\n   %x", frame, back)
		}
	})
}

// FuzzVLANEdit holds the in-place 802.1Q edits to copying references written
// out byte by byte: on any frame and ID, with any spare capacity, push and
// pop in place give the reference's bytes, and the copying PushVLAN and
// RetagVLAN do too without writing their input. A push with room for the tag
// stays in the caller's buffer; one without (a jumbo or exact-size frame)
// leaves that buffer untouched.
func FuzzVLANEdit(f *testing.F) {
	spec := FrameSpec{SrcMAC: macA, DstMAC: macB, SrcIP: Addr{10, 0, 0, 1}, DstIP: Addr{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}
	untagged := MustBuildFrame(spec)
	spec.VLANID = 100
	tagged := MustBuildFrame(spec)
	spec.PayloadLen = 9000
	jumbo := MustBuildFrame(spec)
	for _, fr := range [][]byte{untagged, tagged, jumbo, tagged[:EthernetHeaderLen], tagged[:EthernetHeaderLen+VLANHeaderLen], {}} {
		f.Add(fr, uint16(3000), uint8(0))
		f.Add(fr, uint16(0xffff), uint8(VLANHeaderLen))
		f.Add(fr, uint16(7), uint8(255))
	}
	f.Fuzz(func(t *testing.T, frame []byte, id uint16, spare uint8) {
		want := refPushVLAN(frame, id)
		buf := append(make([]byte, 0, len(frame)+int(spare)), frame...)
		got := PushVLANInPlace(buf, id)
		if !bytes.Equal(got, want) {
			t.Fatalf("push in place (spare %d):\n got %x\nwant %x", spare, got, want)
		}
		if len(frame) >= EthernetHeaderLen {
			if inPlace := int(spare) >= VLANHeaderLen; inPlace != (&got[0] == &buf[:1][0]) {
				t.Fatalf("spare %d: push stayed in the caller's buffer = %v", spare, !inPlace)
			}
			if int(spare) < VLANHeaderLen && !bytes.Equal(buf, frame) {
				t.Fatal("a push without room wrote to its input")
			}
		}
		orig := bytes.Clone(frame)
		if c := PushVLAN(frame, id); !bytes.Equal(c, want) {
			t.Fatalf("copying push:\n got %x\nwant %x", c, want)
		}
		if c := RetagVLAN(frame, id); !bytes.Equal(c, refRetagVLAN(frame, id)) {
			t.Fatalf("copying retag:\n got %x\nwant %x", c, refRetagVLAN(frame, id))
		}
		if !bytes.Equal(frame, orig) {
			t.Fatal("a copying edit wrote to its input")
		}
		if p := PopVLANInPlace(bytes.Clone(frame)); !bytes.Equal(p, refPopVLAN(frame)) {
			t.Fatalf("pop in place:\n got %x\nwant %x", p, refPopVLAN(frame))
		}
	})
}

// refPushVLAN, refPopVLAN and refRetagVLAN are the copying references of the
// 802.1Q edits, built by concatenation.
func refPushVLAN(frame []byte, id uint16) []byte {
	if len(frame) < EthernetHeaderLen {
		return frame
	}
	tag := []byte{0x81, 0x00, byte(id>>8) & 0x0f, byte(id)}
	return append(append(append([]byte{}, frame[:12]...), tag...), frame[12:]...)
}

func refPopVLAN(frame []byte) []byte {
	if len(frame) < EthernetHeaderLen+VLANHeaderLen || frame[12] != 0x81 || frame[13] != 0x00 {
		return frame
	}
	return append(append([]byte{}, frame[:12]...), frame[16:]...)
}

func refRetagVLAN(frame []byte, id uint16) []byte {
	if len(frame) < EthernetHeaderLen+VLANHeaderLen || frame[12] != 0x81 || frame[13] != 0x00 {
		return frame
	}
	out := bytes.Clone(frame)
	out[14] = out[14]&0xf0 | byte(id>>8)&0x0f
	out[15] = byte(id)
	return out
}
