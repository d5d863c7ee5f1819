package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestPropertyFrameRoundTrip checks that any frame built by BuildFrame
// decodes back to the same addressing and payload.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(srcIP, dstIP [4]byte, srcPort, dstPort uint16, vlan uint16, plen uint8, fill byte) bool {
		spec := FrameSpec{
			SrcMAC: macA, DstMAC: macB,
			VLANID: vlan % 4095,
			SrcIP:  Addr(srcIP), DstIP: Addr(dstIP),
			SrcPort: srcPort, DstPort: dstPort,
			PayloadLen: int(plen), PayloadByte: fill,
		}
		data, err := BuildFrame(spec)
		if err != nil {
			return false
		}
		p := NewPacket(data, LayerTypeEthernet, Default)
		if p.ErrorLayer() != nil {
			return false
		}
		ip, ok := p.Layer(LayerTypeIPv4).(*IPv4)
		if !ok || ip.SrcIP != Addr(srcIP) || ip.DstIP != Addr(dstIP) {
			return false
		}
		udp, ok := p.Layer(LayerTypeUDP).(*UDP)
		if !ok || udp.SrcPort != srcPort || udp.DstPort != dstPort {
			return false
		}
		if spec.VLANID != 0 {
			v, ok := p.Layer(LayerTypeVLAN).(*VLAN)
			if !ok || v.VLANID != spec.VLANID {
				return false
			}
		}
		app := p.ApplicationLayer()
		if len(app) != int(plen) {
			return false
		}
		for _, b := range app {
			if b != fill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyChecksumZeroOverValid checks the defining property of the
// Internet checksum: summing data that includes a correct checksum yields 0.
func TestPropertyChecksumZeroOverValid(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		// Zero a 2-byte field, compute, insert, re-verify.
		d := append([]byte(nil), data...)
		d[0], d[1] = 0, 0
		c := Checksum(d)
		d[0], d[1] = byte(c>>8), byte(c)
		return Checksum(d) == 0 || c == 0 // c==0 encodes as 0 and stays 0 only if sum was 0xffff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyESPHeaderRoundTrip checks SPI/Seq survive encode/decode for
// arbitrary values and payloads.
func TestPropertyESPHeaderRoundTrip(t *testing.T) {
	f := func(spi, seq uint32, payload []byte) bool {
		data, err := Serialize(SerializeOptions{}, &ESP{SPI: spi, Seq: seq}, Payload(payload))
		if err != nil {
			return false
		}
		var e ESP
		if err := e.DecodeFromBytes(data); err != nil {
			return false
		}
		return e.SPI == spi && e.Seq == seq && bytes.Equal(e.LayerPayload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEndpointEquality checks that endpoints built from equal bytes
// are equal and hash equally, and that a flow hashes like its reverse.
func TestPropertyEndpointEquality(t *testing.T) {
	f := func(a, b [4]byte) bool {
		e1 := Addr(a).Endpoint()
		e2 := Addr(a).Endpoint()
		e3 := Addr(b).Endpoint()
		if e1 != e2 || e1.FastHash() != e2.FastHash() {
			return false
		}
		return NewFlow(e1, e3).FastHash() == NewFlow(e3, e1).FastHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVLANIDPreserved checks VLAN tags for every valid ID.
func TestPropertyVLANIDPreserved(t *testing.T) {
	f := func(id uint16) bool {
		id %= 4096
		v := &VLAN{VLANID: id, EthernetType: EthernetTypeIPv4}
		data, err := Serialize(SerializeOptions{}, v, Payload([]byte{1}))
		if err != nil {
			return false
		}
		var got VLAN
		if err := got.DecodeFromBytes(data); err != nil {
			return false
		}
		return got.VLANID == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
