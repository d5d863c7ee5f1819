package pkt

import (
	"encoding/binary"
	"fmt"
)

// IPProtocol is the IPv4 protocol number.
type IPProtocol uint8

// Well-known IP protocol numbers.
const (
	IPProtocolICMP IPProtocol = 1
	IPProtocolTCP  IPProtocol = 6
	IPProtocolUDP  IPProtocol = 17
	IPProtocolESP  IPProtocol = 50
)

func (p IPProtocol) String() string {
	switch p {
	case IPProtocolICMP:
		return "ICMP"
	case IPProtocolTCP:
		return "TCP"
	case IPProtocolUDP:
		return "UDP"
	case IPProtocolESP:
		return "ESP"
	default:
		return fmt.Sprintf("IPProto(%d)", uint8(p))
	}
}

// Addr is an IPv4 address, comparable with ==.
type Addr [4]byte

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a[0], &a[1], &a[2], &a[3]); err != nil {
		return Addr{}, fmt.Errorf("pkt: bad IPv4 address %q: %w", s, err)
	}
	return a, nil
}

// MustAddr is ParseAddr that panics on error, for tests and literals.
func MustAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Endpoint returns the address as a flow endpoint.
func (a Addr) Endpoint() Endpoint { return NewEndpoint(EndpointIPv4, a[:]) }

// Uint32 returns the address as a big-endian integer.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 is an IPv4 header (options unsupported, IHL always 5 on serialize).
type IPv4 struct {
	TOS      uint8
	Length   uint16 // total length; recomputed when FixLengths is set
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol IPProtocol
	Checksum uint16 // recomputed when ComputeChecksums is set
	SrcIP    Addr
	DstIP    Addr

	contents, payload []byte
}

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// LayerContents implements Layer.
func (ip *IPv4) LayerContents() []byte { return ip.contents }

// LayerPayload implements Layer.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// NetworkFlow implements NetworkLayer.
func (ip *IPv4) NetworkFlow() Flow {
	return NewFlow(ip.SrcIP.Endpoint(), ip.DstIP.Endpoint())
}

// DecodeFromBytes parses an IPv4 header in place.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return fmt.Errorf("pkt: ipv4 header too short: %d bytes", len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("pkt: ipv4 version field is %d", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return fmt.Errorf("pkt: ipv4 IHL %d below minimum", ihl)
	}
	if len(data) < ihl {
		return fmt.Errorf("pkt: ipv4 header truncated: IHL %d, have %d", ihl, len(data))
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.SrcIP[:], data[12:16])
	copy(ip.DstIP[:], data[16:20])
	ip.contents = data[:ihl]
	end := int(ip.Length)
	if end < ihl || end > len(data) {
		end = len(data)
	}
	ip.payload = data[ihl:end]
	return nil
}

// NextLayerType returns the type of the layer carried in the payload.
func (ip *IPv4) NextLayerType() LayerType {
	switch ip.Protocol {
	case IPProtocolICMP:
		return LayerTypeICMP
	case IPProtocolTCP:
		return LayerTypeTCP
	case IPProtocolUDP:
		return LayerTypeUDP
	case IPProtocolESP:
		return LayerTypeESP
	default:
		return LayerTypePayload
	}
}

// SerializeTo implements SerializableLayer.
func (ip *IPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	payloadLen := len(b.Bytes())
	bytes, err := b.PrependBytes(IPv4HeaderLen)
	if err != nil {
		return err
	}
	if opts.FixLengths {
		ip.Length = uint16(IPv4HeaderLen + payloadLen)
	}
	ip.putHeader(bytes, opts.ComputeChecksums)
	return nil
}

// PutHeader writes the header into b[:IPv4HeaderLen] — IHL 5, the total
// length as ip.Length holds it — with a freshly computed checksum, which it
// also stores in ip.Checksum.
func (ip *IPv4) PutHeader(b []byte) { ip.putHeader(b, true) }

func (ip *IPv4) putHeader(b []byte, computeChecksum bool) {
	b[0] = 4<<4 | 5 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.Length)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = uint8(ip.Protocol)
	binary.BigEndian.PutUint16(b[10:12], 0)
	copy(b[12:16], ip.SrcIP[:])
	copy(b[16:20], ip.DstIP[:])
	if computeChecksum {
		ip.Checksum = Checksum(b[:IPv4HeaderLen])
	}
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
}

// pseudoHeaderChecksum computes the partial checksum over the IPv4
// pseudo-header used by TCP and UDP.
func (ip *IPv4) pseudoHeaderChecksum(proto IPProtocol, length uint16) uint32 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(ip.SrcIP[0:2]))
	sum += uint32(binary.BigEndian.Uint16(ip.SrcIP[2:4]))
	sum += uint32(binary.BigEndian.Uint16(ip.DstIP[0:2]))
	sum += uint32(binary.BigEndian.Uint16(ip.DstIP[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}
