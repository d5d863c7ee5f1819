package pkt

import (
	"encoding/binary"
	"fmt"
)

// EndpointType identifies the address family carried by an Endpoint.
type EndpointType int

// Endpoint address families.
const (
	EndpointInvalid EndpointType = iota
	EndpointMAC
	EndpointIPv4
	EndpointUDPPort
	EndpointTCPPort
)

func (t EndpointType) String() string {
	switch t {
	case EndpointMAC:
		return "MAC"
	case EndpointIPv4:
		return "IPv4"
	case EndpointUDPPort:
		return "UDPPort"
	case EndpointTCPPort:
		return "TCPPort"
	default:
		return "Invalid"
	}
}

// Endpoint is a hashable representation of a source or destination address.
// Endpoints are comparable with == and usable as map keys.
type Endpoint struct {
	typ EndpointType
	len int
	raw [8]byte
}

// NewEndpoint builds an Endpoint from an address family and raw bytes.
// Raw data longer than 8 bytes is rejected as invalid.
func NewEndpoint(typ EndpointType, raw []byte) Endpoint {
	var e Endpoint
	if len(raw) > len(e.raw) {
		return Endpoint{}
	}
	e.typ = typ
	e.len = len(raw)
	copy(e.raw[:], raw)
	return e
}

// Type returns the endpoint's address family.
func (e Endpoint) Type() EndpointType { return e.typ }

// FastHash returns a cheap non-cryptographic hash of the endpoint.
func (e Endpoint) FastHash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	h ^= uint64(e.typ)
	h *= 1099511628211
	for i := 0; i < e.len; i++ {
		h ^= uint64(e.raw[i])
		h *= 1099511628211
	}
	return h
}

func (e Endpoint) String() string {
	switch e.typ {
	case EndpointMAC:
		return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			e.raw[0], e.raw[1], e.raw[2], e.raw[3], e.raw[4], e.raw[5])
	case EndpointIPv4:
		return fmt.Sprintf("%d.%d.%d.%d", e.raw[0], e.raw[1], e.raw[2], e.raw[3])
	case EndpointUDPPort, EndpointTCPPort:
		return fmt.Sprintf("%d", binary.BigEndian.Uint16(e.raw[:2]))
	default:
		return "invalid"
	}
}

// Flow is an ordered (source, destination) pair of Endpoints. Flows are
// comparable with == and usable as map keys.
type Flow struct {
	src, dst Endpoint
}

// NewFlow builds a Flow from two endpoints.
func NewFlow(src, dst Endpoint) Flow { return Flow{src: src, dst: dst} }

// Endpoints returns the flow's source and destination.
func (f Flow) Endpoints() (src, dst Endpoint) { return f.src, f.dst }

// Src returns the source endpoint.
func (f Flow) Src() Endpoint { return f.src }

// Dst returns the destination endpoint.
func (f Flow) Dst() Endpoint { return f.dst }

// FastHash returns a symmetric hash: NewFlow(a, b) and NewFlow(b, a) hash alike,
// so bidirectional traffic of one conversation lands in the same bucket.
func (f Flow) FastHash() uint64 {
	a, b := f.src.FastHash(), f.dst.FastHash()
	if a > b {
		a, b = b, a
	}
	return a*31 + b
}

func (f Flow) String() string { return f.src.String() + "->" + f.dst.String() }
