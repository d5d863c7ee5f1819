package pkt

import (
	"encoding/binary"
	"fmt"
)

// EthernetType is the two-byte type field of an Ethernet frame.
type EthernetType uint16

// Well-known EtherTypes.
const (
	EthernetTypeIPv4 EthernetType = 0x0800
	EthernetTypeARP  EthernetType = 0x0806
	EthernetTypeVLAN EthernetType = 0x8100
)

func (t EthernetType) String() string {
	switch t {
	case EthernetTypeIPv4:
		return "IPv4"
	case EthernetTypeARP:
		return "ARP"
	case EthernetTypeVLAN:
		return "VLAN"
	default:
		return fmt.Sprintf("0x%04x", uint16(t))
	}
}

// MAC is a 6-byte Ethernet hardware address, comparable with ==.
type MAC [6]byte

// ParseMAC parses the common colon-separated hex notation.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if _, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5]); err != nil {
		return MAC{}, fmt.Errorf("pkt: bad MAC %q: %w", s, err)
	}
	return m, nil
}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is ff:ff:ff:ff:ff:ff.
func (m MAC) IsBroadcast() bool {
	return m == MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// Endpoint returns the MAC as a flow endpoint.
func (m MAC) Endpoint() Endpoint { return NewEndpoint(EndpointMAC, m[:]) }

// EthernetHeaderLen is the length of an untagged Ethernet header.
const EthernetHeaderLen = 14

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	SrcMAC, DstMAC MAC
	EthernetType   EthernetType

	contents, payload []byte
}

// LayerType implements Layer.
func (e *Ethernet) LayerType() LayerType { return LayerTypeEthernet }

// LayerContents implements Layer.
func (e *Ethernet) LayerContents() []byte { return e.contents }

// LayerPayload implements Layer.
func (e *Ethernet) LayerPayload() []byte { return e.payload }

// LinkFlow implements LinkLayer.
func (e *Ethernet) LinkFlow() Flow {
	return NewFlow(e.SrcMAC.Endpoint(), e.DstMAC.Endpoint())
}

// DecodeFromBytes parses an Ethernet header in place.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return fmt.Errorf("pkt: ethernet frame too short: %d bytes", len(data))
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EthernetType = EthernetType(binary.BigEndian.Uint16(data[12:14]))
	e.contents = data[:EthernetHeaderLen]
	e.payload = data[EthernetHeaderLen:]
	return nil
}

// NextLayerType returns the type of the layer carried in the payload.
func (e *Ethernet) NextLayerType() LayerType {
	return ethTypeToLayer(e.EthernetType)
}

func ethTypeToLayer(t EthernetType) LayerType {
	switch t {
	case EthernetTypeIPv4:
		return LayerTypeIPv4
	case EthernetTypeARP:
		return LayerTypeARP
	case EthernetTypeVLAN:
		return LayerTypeVLAN
	default:
		return LayerTypePayload
	}
}

// SerializeTo implements SerializableLayer.
func (e *Ethernet) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	bytes, err := b.PrependBytes(EthernetHeaderLen)
	if err != nil {
		return err
	}
	e.PutHeader(bytes)
	return nil
}

// PutHeader writes the header into b[:EthernetHeaderLen].
func (e *Ethernet) PutHeader(b []byte) {
	copy(b[0:6], e.DstMAC[:])
	copy(b[6:12], e.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], uint16(e.EthernetType))
}

// VLANHeaderLen is the length of an 802.1Q tag.
const VLANHeaderLen = 4

// VLAN is an IEEE 802.1Q tag.
type VLAN struct {
	Priority     uint8 // PCP, 3 bits
	DropEligible bool  // DEI
	VLANID       uint16
	EthernetType EthernetType // type of the encapsulated payload

	contents, payload []byte
}

// LayerType implements Layer.
func (v *VLAN) LayerType() LayerType { return LayerTypeVLAN }

// LayerContents implements Layer.
func (v *VLAN) LayerContents() []byte { return v.contents }

// LayerPayload implements Layer.
func (v *VLAN) LayerPayload() []byte { return v.payload }

// DecodeFromBytes parses an 802.1Q tag in place.
func (v *VLAN) DecodeFromBytes(data []byte) error {
	if len(data) < VLANHeaderLen {
		return fmt.Errorf("pkt: vlan tag too short: %d bytes", len(data))
	}
	tci := binary.BigEndian.Uint16(data[0:2])
	v.Priority = uint8(tci >> 13)
	v.DropEligible = tci&0x1000 != 0
	v.VLANID = tci & 0x0fff
	v.EthernetType = EthernetType(binary.BigEndian.Uint16(data[2:4]))
	v.contents = data[:VLANHeaderLen]
	v.payload = data[VLANHeaderLen:]
	return nil
}

// NextLayerType returns the type of the layer carried in the payload.
func (v *VLAN) NextLayerType() LayerType { return ethTypeToLayer(v.EthernetType) }

// SerializeTo implements SerializableLayer.
func (v *VLAN) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	if v.VLANID > 0x0fff {
		return fmt.Errorf("pkt: vlan id %d out of range", v.VLANID)
	}
	bytes, err := b.PrependBytes(VLANHeaderLen)
	if err != nil {
		return err
	}
	tci := uint16(v.Priority)<<13 | v.VLANID
	if v.DropEligible {
		tci |= 0x1000
	}
	binary.BigEndian.PutUint16(bytes[0:2], tci)
	binary.BigEndian.PutUint16(bytes[2:4], uint16(v.EthernetType))
	return nil
}
