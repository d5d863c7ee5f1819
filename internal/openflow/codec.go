// Package openflow implements the control channel between each Logical
// Switch Instance and its controller (the node's traffic steering manager).
//
// The protocol is a compact OpenFlow 1.3-inspired design: every message is
// an 8-byte header (version, type, length, xid) followed by a type-specific
// body. Matches and actions are encoded as OXM-style TLVs. The protocol runs
// over any net.Conn (TCP between processes, net.Pipe inside one process).
package openflow

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/pkt"
	"repro/internal/vswitch"
)

// Version is the only protocol version spoken.
const Version = 0x04

// HeaderLen is the length of the fixed message header.
const HeaderLen = 8

// MaxMessageLen bounds a single control message: the largest total the
// header's 16-bit length field can carry.
const MaxMessageLen = 1<<16 - 1

// MsgType enumerates control message types.
type MsgType uint8

// Message types (values chosen to match their OpenFlow 1.3 counterparts
// where one exists).
const (
	TypeHello           MsgType = 0
	TypeError           MsgType = 1
	TypeEchoRequest     MsgType = 2
	TypeEchoReply       MsgType = 3
	TypeFeaturesRequest MsgType = 5
	TypeFeaturesReply   MsgType = 6
	TypePacketIn        MsgType = 10
	TypePacketOut       MsgType = 13
	TypeFlowMod         MsgType = 14
	TypeFlowStatsReq    MsgType = 18
	TypeFlowStatsReply  MsgType = 19
	TypeBarrierRequest  MsgType = 20
	TypeBarrierReply    MsgType = 21
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeError:
		return "ERROR"
	case TypeEchoRequest:
		return "ECHO_REQUEST"
	case TypeEchoReply:
		return "ECHO_REPLY"
	case TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case TypeFeaturesReply:
		return "FEATURES_REPLY"
	case TypePacketIn:
		return "PACKET_IN"
	case TypePacketOut:
		return "PACKET_OUT"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypeFlowStatsReq:
		return "FLOW_STATS_REQUEST"
	case TypeFlowStatsReply:
		return "FLOW_STATS_REPLY"
	case TypeBarrierRequest:
		return "BARRIER_REQUEST"
	case TypeBarrierReply:
		return "BARRIER_REPLY"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Message is a decoded control message: the header plus the raw body. Typed
// bodies are parsed on demand with the Parse* helpers.
type Message struct {
	Type MsgType
	Xid  uint32
	Body []byte
}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m Message) error {
	total := HeaderLen + len(m.Body)
	if total > MaxMessageLen {
		return fmt.Errorf("openflow: message too large: %d bytes", total)
	}
	buf := make([]byte, total)
	buf[0] = Version
	buf[1] = uint8(m.Type)
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint32(buf[4:8], m.Xid)
	copy(buf[HeaderLen:], m.Body)
	_, err := w.Write(buf)
	return err
}

// ReadMessage reads and decodes one framed message.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	if hdr[0] != Version {
		return Message{}, fmt.Errorf("openflow: unsupported version %#x", hdr[0])
	}
	total := int(binary.BigEndian.Uint16(hdr[2:4]))
	if total < HeaderLen {
		return Message{}, fmt.Errorf("openflow: bad length %d", total)
	}
	m := Message{
		Type: MsgType(hdr[1]),
		Xid:  binary.BigEndian.Uint32(hdr[4:8]),
	}
	if total > HeaderLen {
		m.Body = make([]byte, total-HeaderLen)
		if _, err := io.ReadFull(r, m.Body); err != nil {
			return Message{}, err
		}
	}
	return m, nil
}

// ---- FEATURES ----

// FeaturesReply describes a switch to its controller.
type FeaturesReply struct {
	DPID    uint64
	NTables uint8
	Ports   []uint32
}

// EncodeFeaturesReply builds the body of a FEATURES_REPLY.
func EncodeFeaturesReply(f FeaturesReply) []byte {
	body := make([]byte, 12+4*len(f.Ports))
	binary.BigEndian.PutUint64(body[0:8], f.DPID)
	body[8] = f.NTables
	// body[9:12] padding
	for i, p := range f.Ports {
		binary.BigEndian.PutUint32(body[12+4*i:], p)
	}
	return body
}

// ParseFeaturesReply decodes the body of a FEATURES_REPLY.
func ParseFeaturesReply(body []byte) (FeaturesReply, error) {
	if len(body) < 12 || (len(body)-12)%4 != 0 {
		return FeaturesReply{}, fmt.Errorf("openflow: bad FEATURES_REPLY length %d", len(body))
	}
	f := FeaturesReply{
		DPID:    binary.BigEndian.Uint64(body[0:8]),
		NTables: body[8],
	}
	for off := 12; off < len(body); off += 4 {
		f.Ports = append(f.Ports, binary.BigEndian.Uint32(body[off:]))
	}
	return f, nil
}

// ---- PACKET_IN / PACKET_OUT ----

// PacketIn is a frame punted from switch to controller.
type PacketIn struct {
	InPort  uint32
	TableID uint8
	Reason  uint8
	Data    []byte
}

// EncodePacketIn builds the body of a PACKET_IN.
func EncodePacketIn(p PacketIn) []byte {
	body := make([]byte, 8+len(p.Data))
	binary.BigEndian.PutUint32(body[0:4], p.InPort)
	body[4] = p.TableID
	body[5] = p.Reason
	copy(body[8:], p.Data)
	return body
}

// ParsePacketIn decodes the body of a PACKET_IN.
func ParsePacketIn(body []byte) (PacketIn, error) {
	if len(body) < 8 {
		return PacketIn{}, fmt.Errorf("openflow: bad PACKET_IN length %d", len(body))
	}
	return PacketIn{
		InPort:  binary.BigEndian.Uint32(body[0:4]),
		TableID: body[4],
		Reason:  body[5],
		Data:    body[8:],
	}, nil
}

// PacketOut asks the switch to emit a frame. When OutPort is nonzero the
// frame goes straight out that port; otherwise it is injected into the
// pipeline as if received on InPort.
type PacketOut struct {
	InPort  uint32
	OutPort uint32
	Data    []byte
}

// EncodePacketOut builds the body of a PACKET_OUT.
func EncodePacketOut(p PacketOut) []byte {
	body := make([]byte, 8+len(p.Data))
	binary.BigEndian.PutUint32(body[0:4], p.InPort)
	binary.BigEndian.PutUint32(body[4:8], p.OutPort)
	copy(body[8:], p.Data)
	return body
}

// ParsePacketOut decodes the body of a PACKET_OUT.
func ParsePacketOut(body []byte) (PacketOut, error) {
	if len(body) < 8 {
		return PacketOut{}, fmt.Errorf("openflow: bad PACKET_OUT length %d", len(body))
	}
	return PacketOut{
		InPort:  binary.BigEndian.Uint32(body[0:4]),
		OutPort: binary.BigEndian.Uint32(body[4:8]),
		Data:    body[8:],
	}, nil
}

// ---- FLOW_MOD ----

// FlowMod commands.
const (
	FlowAdd       uint8 = 0
	FlowDelete    uint8 = 3 // delete by cookie
	FlowDeleteAll uint8 = 4
)

// FlowMod carries one flow-table modification.
type FlowMod struct {
	Command  uint8
	TableID  uint8
	Priority uint16
	Cookie   uint64
	Match    vswitch.Match
	Actions  []vswitch.Action
}

// EncodeFlowMod builds the body of a FLOW_MOD.
func EncodeFlowMod(fm FlowMod) ([]byte, error) {
	match := encodeMatch(fm.Match)
	actions, err := encodeActions(fm.Actions)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 16, 16+len(match)+len(actions))
	body[0] = fm.Command
	body[1] = fm.TableID
	binary.BigEndian.PutUint16(body[2:4], fm.Priority)
	binary.BigEndian.PutUint64(body[4:12], fm.Cookie)
	binary.BigEndian.PutUint16(body[12:14], uint16(len(match)))
	binary.BigEndian.PutUint16(body[14:16], uint16(len(actions)))
	body = append(body, match...)
	body = append(body, actions...)
	return body, nil
}

// ParseFlowMod decodes the body of a FLOW_MOD.
func ParseFlowMod(body []byte) (FlowMod, error) {
	if len(body) < 16 {
		return FlowMod{}, fmt.Errorf("openflow: bad FLOW_MOD length %d", len(body))
	}
	fm := FlowMod{
		Command:  body[0],
		TableID:  body[1],
		Priority: binary.BigEndian.Uint16(body[2:4]),
		Cookie:   binary.BigEndian.Uint64(body[4:12]),
	}
	matchLen := int(binary.BigEndian.Uint16(body[12:14]))
	actLen := int(binary.BigEndian.Uint16(body[14:16]))
	if 16+matchLen+actLen > len(body) {
		return FlowMod{}, fmt.Errorf("openflow: FLOW_MOD sections exceed body")
	}
	m, err := decodeMatch(body[16 : 16+matchLen])
	if err != nil {
		return FlowMod{}, err
	}
	fm.Match = m
	acts, err := decodeActions(body[16+matchLen : 16+matchLen+actLen])
	if err != nil {
		return FlowMod{}, err
	}
	fm.Actions = acts
	return fm, nil
}

// ---- FLOW STATS ----

// FlowStat is one entry of a FLOW_STATS_REPLY.
type FlowStat struct {
	TableID  uint8
	Priority uint16
	Cookie   uint64
	Packets  uint64
	Bytes    uint64
}

// EncodeFlowStatsReply builds the body of a FLOW_STATS_REPLY.
func EncodeFlowStatsReply(stats []FlowStat) []byte {
	body := make([]byte, 4+28*len(stats))
	binary.BigEndian.PutUint32(body[0:4], uint32(len(stats)))
	off := 4
	for _, s := range stats {
		body[off] = s.TableID
		binary.BigEndian.PutUint16(body[off+1:off+3], s.Priority)
		// off+3 pad
		binary.BigEndian.PutUint64(body[off+4:off+12], s.Cookie)
		binary.BigEndian.PutUint64(body[off+12:off+20], s.Packets)
		binary.BigEndian.PutUint64(body[off+20:off+28], s.Bytes)
		off += 28
	}
	return body
}

// ParseFlowStatsReply decodes the body of a FLOW_STATS_REPLY.
func ParseFlowStatsReply(body []byte) ([]FlowStat, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("openflow: bad FLOW_STATS_REPLY length %d", len(body))
	}
	n := int(binary.BigEndian.Uint32(body[0:4]))
	if len(body) < 4+28*n {
		return nil, fmt.Errorf("openflow: FLOW_STATS_REPLY truncated")
	}
	stats := make([]FlowStat, n)
	off := 4
	for i := range stats {
		stats[i] = FlowStat{
			TableID:  body[off],
			Priority: binary.BigEndian.Uint16(body[off+1 : off+3]),
			Cookie:   binary.BigEndian.Uint64(body[off+4 : off+12]),
			Packets:  binary.BigEndian.Uint64(body[off+12 : off+20]),
			Bytes:    binary.BigEndian.Uint64(body[off+20 : off+28]),
		}
		off += 28
	}
	return stats, nil
}

// ---- ERROR ----

// Error codes.
const (
	ErrCodeBadRequest uint16 = 1
	ErrCodeBadMatch   uint16 = 4
	ErrCodeBadAction  uint16 = 5
	ErrCodeFlowMod    uint16 = 6
)

// EncodeError builds the body of an ERROR message.
func EncodeError(code uint16, detail string) []byte {
	body := make([]byte, 2+len(detail))
	binary.BigEndian.PutUint16(body[0:2], code)
	copy(body[2:], detail)
	return body
}

// ParseError decodes the body of an ERROR message.
func ParseError(body []byte) (code uint16, detail string, err error) {
	if len(body) < 2 {
		return 0, "", fmt.Errorf("openflow: bad ERROR length %d", len(body))
	}
	return binary.BigEndian.Uint16(body[0:2]), string(body[2:]), nil
}

// ---- Match TLVs ----

// Match field TLV types.
const (
	oxmInPort   uint16 = 1
	oxmEthSrc   uint16 = 2
	oxmEthDst   uint16 = 3
	oxmEthType  uint16 = 4
	oxmVLANID   uint16 = 5
	oxmIPProto  uint16 = 6
	oxmIPSrc    uint16 = 7
	oxmIPDst    uint16 = 8
	oxmL4Src    uint16 = 9
	oxmL4Dst    uint16 = 10
	oxmMetadata uint16 = 11
)

func appendTLV(b []byte, typ uint16, val []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], typ)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(val)))
	b = append(b, hdr[:]...)
	return append(b, val...)
}

func encodeMatch(m vswitch.Match) []byte {
	f := m.Fields()
	var b []byte
	var tmp [16]byte
	if f.InPort != 0 {
		binary.BigEndian.PutUint32(tmp[:4], f.InPort)
		b = appendTLV(b, oxmInPort, tmp[:4])
	}
	if f.EthSrc != nil {
		b = appendTLV(b, oxmEthSrc, f.EthSrc[:])
	}
	if f.EthDst != nil {
		b = appendTLV(b, oxmEthDst, f.EthDst[:])
	}
	if f.EthType != nil {
		binary.BigEndian.PutUint16(tmp[:2], uint16(*f.EthType))
		b = appendTLV(b, oxmEthType, tmp[:2])
	}
	if f.VLANID != nil {
		binary.BigEndian.PutUint16(tmp[:2], *f.VLANID)
		b = appendTLV(b, oxmVLANID, tmp[:2])
	}
	if f.IPProto != nil {
		tmp[0] = uint8(*f.IPProto)
		b = appendTLV(b, oxmIPProto, tmp[:1])
	}
	if f.IPSrc != nil {
		copy(tmp[:4], f.IPSrc.Addr[:])
		tmp[4] = uint8(f.IPSrc.Bits)
		b = appendTLV(b, oxmIPSrc, tmp[:5])
	}
	if f.IPDst != nil {
		copy(tmp[:4], f.IPDst.Addr[:])
		tmp[4] = uint8(f.IPDst.Bits)
		b = appendTLV(b, oxmIPDst, tmp[:5])
	}
	if f.L4Src != nil {
		binary.BigEndian.PutUint16(tmp[:2], *f.L4Src)
		b = appendTLV(b, oxmL4Src, tmp[:2])
	}
	if f.L4Dst != nil {
		binary.BigEndian.PutUint16(tmp[:2], *f.L4Dst)
		b = appendTLV(b, oxmL4Dst, tmp[:2])
	}
	if f.Metadata != nil {
		binary.BigEndian.PutUint64(tmp[:8], f.Metadata.Value)
		binary.BigEndian.PutUint64(tmp[8:16], f.Metadata.Mask)
		b = appendTLV(b, oxmMetadata, tmp[:16])
	}
	return b
}

func decodeMatch(b []byte) (vswitch.Match, error) {
	var f vswitch.MatchFields
	for len(b) > 0 {
		if len(b) < 4 {
			return vswitch.Match{}, fmt.Errorf("openflow: truncated match TLV header")
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		l := int(binary.BigEndian.Uint16(b[2:4]))
		if len(b) < 4+l {
			return vswitch.Match{}, fmt.Errorf("openflow: truncated match TLV value")
		}
		v := b[4 : 4+l]
		b = b[4+l:]
		bad := func() error {
			return fmt.Errorf("openflow: match TLV %d has bad length %d", typ, l)
		}
		switch typ {
		case oxmInPort:
			if l != 4 {
				return vswitch.Match{}, bad()
			}
			f.InPort = binary.BigEndian.Uint32(v)
		case oxmEthSrc:
			if l != 6 {
				return vswitch.Match{}, bad()
			}
			var m pkt.MAC
			copy(m[:], v)
			f.EthSrc = &m
		case oxmEthDst:
			if l != 6 {
				return vswitch.Match{}, bad()
			}
			var m pkt.MAC
			copy(m[:], v)
			f.EthDst = &m
		case oxmEthType:
			if l != 2 {
				return vswitch.Match{}, bad()
			}
			t := pkt.EthernetType(binary.BigEndian.Uint16(v))
			f.EthType = &t
		case oxmVLANID:
			if l != 2 {
				return vswitch.Match{}, bad()
			}
			id := binary.BigEndian.Uint16(v)
			f.VLANID = &id
		case oxmIPProto:
			if l != 1 {
				return vswitch.Match{}, bad()
			}
			p := pkt.IPProtocol(v[0])
			f.IPProto = &p
		case oxmIPSrc:
			if l != 5 {
				return vswitch.Match{}, bad()
			}
			var a pkt.Addr
			copy(a[:], v[:4])
			f.IPSrc = &vswitch.Prefix{Addr: a, Bits: int(v[4])}
		case oxmIPDst:
			if l != 5 {
				return vswitch.Match{}, bad()
			}
			var a pkt.Addr
			copy(a[:], v[:4])
			f.IPDst = &vswitch.Prefix{Addr: a, Bits: int(v[4])}
		case oxmL4Src:
			if l != 2 {
				return vswitch.Match{}, bad()
			}
			p := binary.BigEndian.Uint16(v)
			f.L4Src = &p
		case oxmL4Dst:
			if l != 2 {
				return vswitch.Match{}, bad()
			}
			p := binary.BigEndian.Uint16(v)
			f.L4Dst = &p
		case oxmMetadata:
			if l != 16 {
				return vswitch.Match{}, bad()
			}
			f.Metadata = &vswitch.Masked{
				Value: binary.BigEndian.Uint64(v[0:8]),
				Mask:  binary.BigEndian.Uint64(v[8:16]),
			}
		default:
			return vswitch.Match{}, fmt.Errorf("openflow: unknown match TLV type %d", typ)
		}
	}
	return vswitch.MatchFromFields(f), nil
}

// ---- Action TLVs ----

// Action TLV types.
const (
	actOutput      uint16 = 1
	actFlood       uint16 = 2
	actController  uint16 = 3
	actPushVLAN    uint16 = 4
	actPopVLAN     uint16 = 5
	actSetVLAN     uint16 = 6
	actSetEthSrc   uint16 = 7
	actSetEthDst   uint16 = 8
	actSetMetadata uint16 = 9
	actGotoTable   uint16 = 10
)

func encodeActions(actions []vswitch.Action) ([]byte, error) {
	var b []byte
	var tmp [16]byte
	for _, a := range actions {
		switch a := a.(type) {
		case vswitch.OutputAction:
			binary.BigEndian.PutUint32(tmp[:4], a.Port)
			b = appendTLV(b, actOutput, tmp[:4])
		case vswitch.FloodAction:
			b = appendTLV(b, actFlood, nil)
		case vswitch.ControllerAction:
			b = appendTLV(b, actController, nil)
		case vswitch.PushVLANAction:
			binary.BigEndian.PutUint16(tmp[:2], a.VLANID)
			b = appendTLV(b, actPushVLAN, tmp[:2])
		case vswitch.PopVLANAction:
			b = appendTLV(b, actPopVLAN, nil)
		case vswitch.SetVLANAction:
			binary.BigEndian.PutUint16(tmp[:2], a.VLANID)
			b = appendTLV(b, actSetVLAN, tmp[:2])
		case vswitch.SetEthSrcAction:
			b = appendTLV(b, actSetEthSrc, a.MAC[:])
		case vswitch.SetEthDstAction:
			b = appendTLV(b, actSetEthDst, a.MAC[:])
		case vswitch.SetMetadataAction:
			binary.BigEndian.PutUint64(tmp[:8], a.Value)
			binary.BigEndian.PutUint64(tmp[8:16], a.Mask)
			b = appendTLV(b, actSetMetadata, tmp[:16])
		case vswitch.GotoTableAction:
			tmp[0] = uint8(a.Table)
			b = appendTLV(b, actGotoTable, tmp[:1])
		default:
			return nil, fmt.Errorf("openflow: unencodable action %T", a)
		}
	}
	return b, nil
}

func decodeActions(b []byte) ([]vswitch.Action, error) {
	var actions []vswitch.Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("openflow: truncated action TLV header")
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		l := int(binary.BigEndian.Uint16(b[2:4]))
		if len(b) < 4+l {
			return nil, fmt.Errorf("openflow: truncated action TLV value")
		}
		v := b[4 : 4+l]
		b = b[4+l:]
		bad := func() error {
			return fmt.Errorf("openflow: action TLV %d has bad length %d", typ, l)
		}
		switch typ {
		case actOutput:
			if l != 4 {
				return nil, bad()
			}
			actions = append(actions, vswitch.Output(binary.BigEndian.Uint32(v)))
		case actFlood:
			actions = append(actions, vswitch.Flood())
		case actController:
			actions = append(actions, vswitch.ToController())
		case actPushVLAN:
			if l != 2 {
				return nil, bad()
			}
			actions = append(actions, vswitch.PushVLAN(binary.BigEndian.Uint16(v)))
		case actPopVLAN:
			actions = append(actions, vswitch.PopVLAN())
		case actSetVLAN:
			if l != 2 {
				return nil, bad()
			}
			actions = append(actions, vswitch.SetVLAN(binary.BigEndian.Uint16(v)))
		case actSetEthSrc:
			if l != 6 {
				return nil, bad()
			}
			var m pkt.MAC
			copy(m[:], v)
			actions = append(actions, vswitch.SetEthSrc(m))
		case actSetEthDst:
			if l != 6 {
				return nil, bad()
			}
			var m pkt.MAC
			copy(m[:], v)
			actions = append(actions, vswitch.SetEthDst(m))
		case actSetMetadata:
			if l != 16 {
				return nil, bad()
			}
			actions = append(actions, vswitch.SetMetadata(
				binary.BigEndian.Uint64(v[0:8]), binary.BigEndian.Uint64(v[8:16])))
		case actGotoTable:
			if l != 1 {
				return nil, bad()
			}
			actions = append(actions, vswitch.GotoTable(int(v[0])))
		default:
			return nil, fmt.Errorf("openflow: unknown action TLV type %d", typ)
		}
	}
	return actions, nil
}
