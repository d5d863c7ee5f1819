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
