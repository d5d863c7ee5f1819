package pkt

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // header+payload; recomputed when FixLengths is set
	Checksum         uint16 // recomputed when ComputeChecksums is set

	// ipv4 is the network layer used for the pseudo-header checksum; set
	// via SetNetworkLayerForChecksum before serializing with
	// ComputeChecksums.
	ipv4 *IPv4

	contents, payload []byte
}

// LayerType implements Layer.
func (u *UDP) LayerType() LayerType { return LayerTypeUDP }

// LayerContents implements Layer.
func (u *UDP) LayerContents() []byte { return u.contents }

// LayerPayload implements Layer.
func (u *UDP) LayerPayload() []byte { return u.payload }

// TransportFlow implements TransportLayer.
func (u *UDP) TransportFlow() Flow {
	var s, d [2]byte
	binary.BigEndian.PutUint16(s[:], u.SrcPort)
	binary.BigEndian.PutUint16(d[:], u.DstPort)
	return NewFlow(NewEndpoint(EndpointUDPPort, s[:]), NewEndpoint(EndpointUDPPort, d[:]))
}

// SetNetworkLayerForChecksum records the enclosing IPv4 header so the UDP
// checksum can cover the pseudo-header.
func (u *UDP) SetNetworkLayerForChecksum(ip *IPv4) { u.ipv4 = ip }

// DecodeFromBytes parses a UDP header in place.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return fmt.Errorf("pkt: udp header too short: %d bytes", len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	u.contents = data[:UDPHeaderLen]
	end := int(u.Length)
	if end < UDPHeaderLen || end > len(data) {
		end = len(data)
	}
	u.payload = data[UDPHeaderLen:end]
	return nil
}

// NextLayerType returns LayerTypePayload: UDP payload is opaque here.
func (u *UDP) NextLayerType() LayerType { return LayerTypePayload }

// SerializeTo implements SerializableLayer.
func (u *UDP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	payloadLen := len(b.Bytes())
	if _, err := b.PrependBytes(UDPHeaderLen); err != nil {
		return err
	}
	if opts.FixLengths {
		u.Length = uint16(UDPHeaderLen + payloadLen)
	}
	var ip *IPv4
	if opts.ComputeChecksums {
		if u.ipv4 == nil {
			return fmt.Errorf("pkt: udp checksum requested without network layer")
		}
		ip = u.ipv4
	}
	u.PutHeader(b.Bytes(), ip)
	return nil
}

// PutHeader writes the header into seg[:UDPHeaderLen], where seg is the
// whole datagram with its payload already in place, and u.Length as set.
// With a non-nil ip the checksum is computed over seg under ip's
// pseudo-header and stored in u.Checksum; with nil, u.Checksum is written as
// it is.
func (u *UDP) PutHeader(seg []byte, ip *IPv4) {
	binary.BigEndian.PutUint16(seg[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], u.DstPort)
	binary.BigEndian.PutUint16(seg[4:6], u.Length)
	binary.BigEndian.PutUint16(seg[6:8], 0)
	if ip != nil {
		u.Checksum = tcpipChecksum(seg, ip.pseudoHeaderChecksum(IPProtocolUDP, uint16(len(seg))))
	}
	binary.BigEndian.PutUint16(seg[6:8], u.Checksum)
}

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFlagFIN = 1 << iota
	TCPFlagSYN
	TCPFlagRST
	TCPFlagPSH
	TCPFlagACK
	TCPFlagURG
)

// TCP is a TCP header (options unsupported, data offset always 5 on
// serialize).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16

	ipv4 *IPv4

	contents, payload []byte
}

// LayerType implements Layer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// LayerContents implements Layer.
func (t *TCP) LayerContents() []byte { return t.contents }

// LayerPayload implements Layer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// TransportFlow implements TransportLayer.
func (t *TCP) TransportFlow() Flow {
	var s, d [2]byte
	binary.BigEndian.PutUint16(s[:], t.SrcPort)
	binary.BigEndian.PutUint16(d[:], t.DstPort)
	return NewFlow(NewEndpoint(EndpointTCPPort, s[:]), NewEndpoint(EndpointTCPPort, d[:]))
}

// SetNetworkLayerForChecksum records the enclosing IPv4 header so the TCP
// checksum can cover the pseudo-header.
func (t *TCP) SetNetworkLayerForChecksum(ip *IPv4) { t.ipv4 = ip }

// DecodeFromBytes parses a TCP header in place.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPHeaderLen {
		return fmt.Errorf("pkt: tcp header too short: %d bytes", len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	dataOff := int(data[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(data) {
		return fmt.Errorf("pkt: tcp data offset %d invalid", dataOff)
	}
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.contents = data[:dataOff]
	t.payload = data[dataOff:]
	return nil
}

// NextLayerType returns LayerTypePayload: TCP payload is opaque here.
func (t *TCP) NextLayerType() LayerType { return LayerTypePayload }

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	if _, err := b.PrependBytes(TCPHeaderLen); err != nil {
		return err
	}
	var ip *IPv4
	if opts.ComputeChecksums {
		if t.ipv4 == nil {
			return fmt.Errorf("pkt: tcp checksum requested without network layer")
		}
		ip = t.ipv4
	}
	t.PutHeader(b.Bytes(), ip)
	return nil
}

// PutHeader writes the header (data offset 5, no options) into
// seg[:TCPHeaderLen], where seg is the whole segment with its payload
// already in place. With a non-nil ip the checksum is computed over seg
// under ip's pseudo-header and stored in t.Checksum; with nil, t.Checksum is
// written as it is.
func (t *TCP) PutHeader(seg []byte, ip *IPv4) {
	binary.BigEndian.PutUint16(seg[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], t.DstPort)
	binary.BigEndian.PutUint32(seg[4:8], t.Seq)
	binary.BigEndian.PutUint32(seg[8:12], t.Ack)
	seg[12] = 5 << 4
	seg[13] = t.Flags
	binary.BigEndian.PutUint16(seg[14:16], t.Window)
	binary.BigEndian.PutUint16(seg[16:18], 0)
	binary.BigEndian.PutUint16(seg[18:20], t.Urgent)
	if ip != nil {
		t.Checksum = tcpipChecksum(seg, ip.pseudoHeaderChecksum(IPProtocolTCP, uint16(len(seg))))
	}
	binary.BigEndian.PutUint16(seg[16:18], t.Checksum)
}

// ICMPHeaderLen is the length of the fixed ICMP header.
const ICMPHeaderLen = 8

// ICMP is an ICMPv4 header.
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
	ID, Seq    uint16

	contents, payload []byte
}

// LayerType implements Layer.
func (i *ICMP) LayerType() LayerType { return LayerTypeICMP }

// LayerContents implements Layer.
func (i *ICMP) LayerContents() []byte { return i.contents }

// LayerPayload implements Layer.
func (i *ICMP) LayerPayload() []byte { return i.payload }

// DecodeFromBytes parses an ICMP header in place.
func (i *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < ICMPHeaderLen {
		return fmt.Errorf("pkt: icmp header too short: %d bytes", len(data))
	}
	i.Type = data[0]
	i.Code = data[1]
	i.Checksum = binary.BigEndian.Uint16(data[2:4])
	i.ID = binary.BigEndian.Uint16(data[4:6])
	i.Seq = binary.BigEndian.Uint16(data[6:8])
	i.contents = data[:ICMPHeaderLen]
	i.payload = data[ICMPHeaderLen:]
	return nil
}

// NextLayerType returns LayerTypePayload.
func (i *ICMP) NextLayerType() LayerType { return LayerTypePayload }

// SerializeTo implements SerializableLayer.
func (i *ICMP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	bytes, err := b.PrependBytes(ICMPHeaderLen)
	if err != nil {
		return err
	}
	bytes[0] = i.Type
	bytes[1] = i.Code
	binary.BigEndian.PutUint16(bytes[2:4], 0)
	binary.BigEndian.PutUint16(bytes[4:6], i.ID)
	binary.BigEndian.PutUint16(bytes[6:8], i.Seq)
	if opts.ComputeChecksums {
		i.Checksum = Checksum(b.Bytes())
	}
	binary.BigEndian.PutUint16(bytes[2:4], i.Checksum)
	return nil
}
