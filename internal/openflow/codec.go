// Package openflow implements the control channel between each Logical
// Switch Instance and its controller (the node's traffic steering manager).
//
// The protocol is a compact OpenFlow 1.3-inspired design: every message is
// an 8-byte header (version, type, length, xid) followed by a type-specific
// body. Matches and actions are encoded as OXM-style TLVs. The protocol runs
// over any net.Conn (TCP between processes, net.Pipe inside one process).
//
// It carries what the steering manager needs and nothing else: a HELLO
// handshake, FLOW_MOD add and delete-by-cookie into the switch's one flow
// table, BARRIER, FLOW_STATS, and ERROR replies.
package openflow

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/pkt"
	"repro/internal/vswitch"
)

// version is the only protocol version spoken.
const version = 0x04

// headerLen is the length of the fixed message header.
const headerLen = 8

// maxMessageLen bounds a single control message: the largest total the
// header's 16-bit length field can carry.
const maxMessageLen = 1<<16 - 1

// msgType enumerates control message types: the handshake, errors, and what
// the traffic steering manager programs and reads.
type msgType uint8

// Message types (values match their OpenFlow 1.3 counterparts).
const (
	typeHello          msgType = 0
	typeError          msgType = 1
	typeFlowMod        msgType = 14
	typeFlowStatsReq   msgType = 18
	typeFlowStatsReply msgType = 19
	typeBarrierRequest msgType = 20
	typeBarrierReply   msgType = 21
)

func (t msgType) String() string {
	switch t {
	case typeHello:
		return "HELLO"
	case typeError:
		return "ERROR"
	case typeFlowMod:
		return "FLOW_MOD"
	case typeFlowStatsReq:
		return "FLOW_STATS_REQUEST"
	case typeFlowStatsReply:
		return "FLOW_STATS_REPLY"
	case typeBarrierRequest:
		return "BARRIER_REQUEST"
	case typeBarrierReply:
		return "BARRIER_REPLY"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// message is a decoded control message: the header plus the raw body. Typed
// bodies are parsed on demand with the parse* helpers.
type message struct {
	Type msgType
	Xid  uint32
	Body []byte
}

// writeMessage frames and writes one message.
func writeMessage(w io.Writer, m message) error {
	total := headerLen + len(m.Body)
	if total > maxMessageLen {
		return fmt.Errorf("openflow: message too large: %d bytes", total)
	}
	buf := make([]byte, total)
	buf[0] = version
	buf[1] = uint8(m.Type)
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint32(buf[4:8], m.Xid)
	copy(buf[headerLen:], m.Body)
	_, err := w.Write(buf)
	return err
}

// readMessage reads and decodes one framed message.
func readMessage(r io.Reader) (message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return message{}, err
	}
	if hdr[0] != version {
		return message{}, fmt.Errorf("openflow: unsupported version %#x", hdr[0])
	}
	total := int(binary.BigEndian.Uint16(hdr[2:4]))
	if total < headerLen {
		return message{}, fmt.Errorf("openflow: bad length %d", total)
	}
	m := message{
		Type: msgType(hdr[1]),
		Xid:  binary.BigEndian.Uint32(hdr[4:8]),
	}
	if total > headerLen {
		m.Body = make([]byte, total-headerLen)
		if _, err := io.ReadFull(r, m.Body); err != nil {
			return message{}, err
		}
	}
	return m, nil
}

// ---- FLOW_MOD ----

// FlowMod commands.
const (
	flowAdd    uint8 = 0
	flowDelete uint8 = 3 // delete by cookie
)

// flowModHeaderLen is the fixed part of a FLOW_MOD body: command, priority,
// cookie and the lengths of the match and action sections.
const flowModHeaderLen = 15

// flowMod carries one flow-table modification.
type flowMod struct {
	Command  uint8
	Priority uint16
	Cookie   uint64
	Match    vswitch.Match
	Actions  []vswitch.Action
}

// encodeFlowMod builds the body of a FLOW_MOD.
func encodeFlowMod(fm flowMod) ([]byte, error) {
	match := encodeMatch(fm.Match)
	actions, err := encodeActions(fm.Actions)
	if err != nil {
		return nil, err
	}
	body := make([]byte, flowModHeaderLen, flowModHeaderLen+len(match)+len(actions))
	body[0] = fm.Command
	binary.BigEndian.PutUint16(body[1:3], fm.Priority)
	binary.BigEndian.PutUint64(body[3:11], fm.Cookie)
	binary.BigEndian.PutUint16(body[11:13], uint16(len(match)))
	binary.BigEndian.PutUint16(body[13:15], uint16(len(actions)))
	body = append(body, match...)
	body = append(body, actions...)
	return body, nil
}

// parseFlowMod decodes the body of a FLOW_MOD.
func parseFlowMod(body []byte) (flowMod, error) {
	if len(body) < flowModHeaderLen {
		return flowMod{}, fmt.Errorf("openflow: bad FLOW_MOD length %d", len(body))
	}
	fm := flowMod{
		Command:  body[0],
		Priority: binary.BigEndian.Uint16(body[1:3]),
		Cookie:   binary.BigEndian.Uint64(body[3:11]),
	}
	matchLen := int(binary.BigEndian.Uint16(body[11:13]))
	actLen := int(binary.BigEndian.Uint16(body[13:15]))
	if flowModHeaderLen+matchLen+actLen > len(body) {
		return flowMod{}, fmt.Errorf("openflow: FLOW_MOD sections exceed body")
	}
	rest := body[flowModHeaderLen:]
	m, err := decodeMatch(rest[:matchLen])
	if err != nil {
		return flowMod{}, err
	}
	fm.Match = m
	acts, err := decodeActions(rest[matchLen : matchLen+actLen])
	if err != nil {
		return flowMod{}, err
	}
	fm.Actions = acts
	return fm, nil
}

// ---- FLOW STATS ----

// FlowStat is one entry of a FLOW_STATS_REPLY: an installed entry's hit
// counters.
type FlowStat struct {
	Priority uint16
	Cookie   uint64
	Packets  uint64
	Bytes    uint64
}

// flowStatLen is the encoded size of one FlowStat.
const flowStatLen = 26

// encodeFlowStatsReply builds the body of a FLOW_STATS_REPLY.
func encodeFlowStatsReply(stats []FlowStat) []byte {
	body := make([]byte, 4+flowStatLen*len(stats))
	binary.BigEndian.PutUint32(body[0:4], uint32(len(stats)))
	off := 4
	for _, s := range stats {
		binary.BigEndian.PutUint16(body[off:off+2], s.Priority)
		binary.BigEndian.PutUint64(body[off+2:off+10], s.Cookie)
		binary.BigEndian.PutUint64(body[off+10:off+18], s.Packets)
		binary.BigEndian.PutUint64(body[off+18:off+26], s.Bytes)
		off += flowStatLen
	}
	return body
}

// parseFlowStatsReply decodes the body of a FLOW_STATS_REPLY.
func parseFlowStatsReply(body []byte) ([]FlowStat, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("openflow: bad FLOW_STATS_REPLY length %d", len(body))
	}
	n := int(binary.BigEndian.Uint32(body[0:4]))
	if (len(body)-4)/flowStatLen < n {
		return nil, fmt.Errorf("openflow: FLOW_STATS_REPLY truncated")
	}
	stats := make([]FlowStat, n)
	off := 4
	for i := range stats {
		stats[i] = FlowStat{
			Priority: binary.BigEndian.Uint16(body[off : off+2]),
			Cookie:   binary.BigEndian.Uint64(body[off+2 : off+10]),
			Packets:  binary.BigEndian.Uint64(body[off+10 : off+18]),
			Bytes:    binary.BigEndian.Uint64(body[off+18 : off+26]),
		}
		off += flowStatLen
	}
	return stats, nil
}

// ---- ERROR ----

// Error codes.
const (
	errCodeBadRequest uint16 = 1
	errCodeFlowMod    uint16 = 6
)

// encodeError builds the body of an ERROR message.
func encodeError(code uint16, detail string) []byte {
	body := make([]byte, 2+len(detail))
	binary.BigEndian.PutUint16(body[0:2], code)
	copy(body[2:], detail)
	return body
}

// parseError decodes the body of an ERROR message.
func parseError(body []byte) (code uint16, detail string, err error) {
	if len(body) < 2 {
		return 0, "", fmt.Errorf("openflow: bad ERROR length %d", len(body))
	}
	return binary.BigEndian.Uint16(body[0:2]), string(body[2:]), nil
}

// ---- Match TLVs ----

// Match field TLV types.
const (
	oxmInPort  uint16 = 1
	oxmEthType uint16 = 4
	oxmVLANID  uint16 = 5
	oxmIPProto uint16 = 6
	oxmIPSrc   uint16 = 7
	oxmIPDst   uint16 = 8
	oxmL4Src   uint16 = 9
	oxmL4Dst   uint16 = 10
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
	var tmp [5]byte
	if f.InPort != 0 {
		binary.BigEndian.PutUint32(tmp[:4], f.InPort)
		b = appendTLV(b, oxmInPort, tmp[:4])
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
		default:
			return vswitch.Match{}, fmt.Errorf("openflow: unknown match TLV type %d", typ)
		}
	}
	return vswitch.MatchFromFields(f), nil
}

// ---- Action TLVs ----

// Action TLV types.
const (
	actOutput    uint16 = 1
	actPushVLAN  uint16 = 4
	actPopVLAN   uint16 = 5
	actSetEthSrc uint16 = 7
	actSetEthDst uint16 = 8
)

func encodeActions(actions []vswitch.Action) ([]byte, error) {
	var b []byte
	var tmp [4]byte
	for _, a := range actions {
		switch a := a.(type) {
		case vswitch.OutputAction:
			binary.BigEndian.PutUint32(tmp[:4], a.Port)
			b = appendTLV(b, actOutput, tmp[:4])
		case vswitch.PushVLANAction:
			binary.BigEndian.PutUint16(tmp[:2], a.VLANID)
			b = appendTLV(b, actPushVLAN, tmp[:2])
		case vswitch.PopVLANAction:
			b = appendTLV(b, actPopVLAN, nil)
		case vswitch.SetEthSrcAction:
			b = appendTLV(b, actSetEthSrc, a.MAC[:])
		case vswitch.SetEthDstAction:
			b = appendTLV(b, actSetEthDst, a.MAC[:])
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
		case actPushVLAN:
			if l != 2 {
				return nil, bad()
			}
			actions = append(actions, vswitch.PushVLAN(binary.BigEndian.Uint16(v)))
		case actPopVLAN:
			actions = append(actions, vswitch.PopVLAN())
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
		default:
			return nil, fmt.Errorf("openflow: unknown action TLV type %d", typ)
		}
	}
	return actions, nil
}
