// Package openflow implements the control channel between each Logical
// Switch Instance and its controller (the node's traffic steering manager).
//
// The protocol is a compact OpenFlow 1.3-inspired design: every message is
// an 8-byte header (version, type, length, xid) followed by a type-specific
// body. Matches and actions are encoded as OXM-style TLVs. The protocol runs
// over any net.Conn (NewAgent, Connect) or, to a switch in the controller's
// process, as the same bytes handed to its agent in one call (Local).
//
// It carries what the steering manager needs and nothing else: a HELLO
// handshake, FLOW_MOD add and delete-by-cookie into the switch's one flow
// table, BARRIER, FLOW_STATS, and ERROR replies.
//
// BARRIER is the commit point. The agent stages every FLOW_MOD since the
// last barrier and, at the barrier, applies them in order as one table
// publish; if any was refused or unparsable it applies none and answers
// ERROR under the barrier's xid. OpenFlow already lets a switch reorder
// the messages between two barriers, so this is the OpenFlow 1.4 bundle
// with no new message type and no bundle size limit. Controller.Commit is
// the steering manager's one way to program a switch: it replaces the
// whole entry set under one cookie with one such commit.
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

// msgNames names the message types for errors and logs.
var msgNames = map[msgType]string{typeHello: "HELLO", typeError: "ERROR", typeFlowMod: "FLOW_MOD",
	typeFlowStatsReq: "FLOW_STATS_REQUEST", typeFlowStatsReply: "FLOW_STATS_REPLY",
	typeBarrierRequest: "BARRIER_REQUEST", typeBarrierReply: "BARRIER_REPLY"}

func (t msgType) String() string {
	if name, ok := msgNames[t]; ok {
		return name
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// message is a decoded control message: the header plus the raw body. Typed
// bodies are parsed on demand with the parse* helpers.
type message struct {
	Type msgType
	Xid  uint32
	Body []byte
}

// appendHeader appends a message header under xid whose length covers the
// header alone; a caller that appends a body sets the length after it.
func appendHeader(b []byte, t msgType, xid uint32) []byte {
	b = append(b, version, uint8(t), 0, headerLen)
	return binary.BigEndian.AppendUint32(b, xid)
}

// writeMessage frames and writes one message.
func writeMessage(w io.Writer, m message) error {
	total := headerLen + len(m.Body)
	if total > maxMessageLen {
		return fmt.Errorf("openflow: message too large: %d bytes", total)
	}
	buf := append(appendHeader(make([]byte, 0, total), m.Type, m.Xid), m.Body...)
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	_, err := w.Write(buf)
	return err
}

// readMessage reads and decodes one framed message. hdr is the reading
// endpoint's own header buffer, so a read costs no allocation for it; the
// body is read into buf when it fits and into a fresh slice otherwise.
func readMessage(r io.Reader, hdr *[headerLen]byte, buf []byte) (message, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return message{}, err
	}
	m, n, err := parseHeader(hdr[:])
	if err != nil || n == 0 {
		return m, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	m.Body = buf[:n]
	_, err = io.ReadFull(r, m.Body)
	return m, err
}

// splitMessage decodes the first framed message of b, its body a slice of
// b, and returns the rest of b; it fails where readMessage reading b would.
func splitMessage(b []byte) (message, []byte, error) {
	m, n, err := parseHeader(b)
	if err == nil && len(b) < headerLen+n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return message{}, nil, err
	}
	m.Body = b[headerLen : headerLen+n : headerLen+n]
	return m, b[headerLen+n:], nil
}

// parseHeader decodes the header b starts with into the message's type and
// xid and the length of its body.
func parseHeader(b []byte) (message, int, error) {
	if len(b) < headerLen {
		return message{}, 0, io.ErrUnexpectedEOF
	}
	if b[0] != version {
		return message{}, 0, fmt.Errorf("openflow: unsupported version %#x", b[0])
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < headerLen {
		return message{}, 0, fmt.Errorf("openflow: bad length %d", total)
	}
	return message{Type: msgType(b[1]), Xid: binary.BigEndian.Uint32(b[4:8])}, total - headerLen, nil
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

// appendFlowMod appends fm to b as one whole FLOW_MOD message under xid.
// On error b is returned as it was.
func appendFlowMod(b []byte, xid uint32, fm flowMod) ([]byte, error) {
	start := len(b)
	b = appendHeader(b, typeFlowMod, xid)
	b = append(b, fm.Command)
	b = binary.BigEndian.AppendUint16(b, fm.Priority)
	b = binary.BigEndian.AppendUint64(b, fm.Cookie)
	b = append(b, 0, 0, 0, 0) // the section lengths, set below
	matchAt := len(b)
	b = appendMatch(b, fm.Match)
	actAt := len(b)
	b, err := appendActions(b, fm.Actions)
	if err == nil && len(b)-start > maxMessageLen {
		err = fmt.Errorf("openflow: message too large: %d bytes", len(b)-start)
	}
	if err != nil {
		return b[:start], err
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(b)-start))
	binary.BigEndian.PutUint16(b[matchAt-4:], uint16(actAt-matchAt))
	binary.BigEndian.PutUint16(b[matchAt-2:], uint16(len(b)-actAt))
	return b, nil
}

// parseFlowMod decodes the body of a FLOW_MOD. Every field is copied out of
// body, so the caller may reuse it.
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
	var err error
	if fm.Match, err = decodeMatch(rest[:matchLen]); err != nil {
		return flowMod{}, err
	}
	if fm.Actions, err = decodeActions(rest[matchLen : matchLen+actLen]); err != nil {
		return flowMod{}, err
	}
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

// appendTLV appends the header of a TLV whose value of n bytes follows.
func appendTLV(b []byte, typ uint16, n int) []byte {
	b = binary.BigEndian.AppendUint16(b, typ)
	return binary.BigEndian.AppendUint16(b, uint16(n))
}

// eachTLV calls fn with every TLV of b, and fails on the first that is
// truncated, of a type lens does not know, of another length than lens
// gives for its type, or that fn refuses.
func eachTLV(b []byte, what string, lens map[uint16]int, fn func(typ uint16, v []byte) error) error {
	for len(b) > 0 {
		if len(b) < 4 {
			return fmt.Errorf("openflow: truncated %s TLV header", what)
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		l := int(binary.BigEndian.Uint16(b[2:4]))
		if len(b) < 4+l {
			return fmt.Errorf("openflow: truncated %s TLV value", what)
		}
		if want, known := lens[typ]; !known {
			return fmt.Errorf("openflow: unknown %s TLV type %d", what, typ)
		} else if want != l {
			return fmt.Errorf("openflow: %s TLV %d has bad length %d", what, typ, l)
		}
		if err := fn(typ, b[4:4+l]); err != nil {
			return err
		}
		b = b[4+l:]
	}
	return nil
}

// appendMatch appends the TLVs of every field m selects on.
func appendMatch(b []byte, m vswitch.Match) []byte {
	f := m.Fields()
	if f.InPort != 0 {
		b = binary.BigEndian.AppendUint32(appendTLV(b, oxmInPort, 4), f.InPort)
	}
	if f.EthType != nil {
		b = binary.BigEndian.AppendUint16(appendTLV(b, oxmEthType, 2), uint16(*f.EthType))
	}
	if f.VLANID != nil {
		b = binary.BigEndian.AppendUint16(appendTLV(b, oxmVLANID, 2), *f.VLANID)
	}
	if f.IPProto != nil {
		b = append(appendTLV(b, oxmIPProto, 1), uint8(*f.IPProto))
	}
	if f.IPSrc != nil {
		b = append(append(appendTLV(b, oxmIPSrc, 5), f.IPSrc.Addr[:]...), uint8(f.IPSrc.Bits))
	}
	if f.IPDst != nil {
		b = append(append(appendTLV(b, oxmIPDst, 5), f.IPDst.Addr[:]...), uint8(f.IPDst.Bits))
	}
	if f.L4Src != nil {
		b = binary.BigEndian.AppendUint16(appendTLV(b, oxmL4Src, 2), *f.L4Src)
	}
	if f.L4Dst != nil {
		b = binary.BigEndian.AppendUint16(appendTLV(b, oxmL4Dst, 2), *f.L4Dst)
	}
	return b
}

// matchLens is the value length of each match TLV type.
var matchLens = map[uint16]int{oxmInPort: 4, oxmEthType: 2, oxmVLANID: 2, oxmIPProto: 1, oxmIPSrc: 5, oxmIPDst: 5, oxmL4Src: 2, oxmL4Dst: 2}

// decodeMatch decodes a match section. The field values live in this frame:
// MatchFromFields copies each into the Match it builds.
func decodeMatch(b []byte) (vswitch.Match, error) {
	var (
		f              vswitch.MatchFields
		ethType        pkt.EthernetType
		vlan, l4s, l4d uint16
		proto          pkt.IPProtocol
		src, dst       vswitch.Prefix
	)
	err := eachTLV(b, "match", matchLens, func(typ uint16, v []byte) error {
		switch typ {
		case oxmInPort:
			f.InPort = binary.BigEndian.Uint32(v)
		case oxmEthType:
			ethType, f.EthType = pkt.EthernetType(binary.BigEndian.Uint16(v)), &ethType
		case oxmVLANID:
			vlan, f.VLANID = binary.BigEndian.Uint16(v), &vlan
		case oxmIPProto:
			proto, f.IPProto = pkt.IPProtocol(v[0]), &proto
		case oxmIPSrc, oxmIPDst:
			if v[4] > 32 {
				return fmt.Errorf("openflow: match TLV %d has prefix length %d", typ, v[4])
			}
			if typ == oxmIPSrc {
				src, f.IPSrc = vswitch.Prefix{Addr: pkt.Addr(v[:4]), Bits: int(v[4])}, &src
			} else {
				dst, f.IPDst = vswitch.Prefix{Addr: pkt.Addr(v[:4]), Bits: int(v[4])}, &dst
			}
		case oxmL4Src:
			l4s, f.L4Src = binary.BigEndian.Uint16(v), &l4s
		case oxmL4Dst:
			l4d, f.L4Dst = binary.BigEndian.Uint16(v), &l4d
		}
		return nil
	})
	return vswitch.MatchFromFields(f), err
}

// ---- Action TLVs ----

// Action TLV types.
const (
	actOutput       uint16 = 1
	actPushVLAN     uint16 = 4
	actPopVLAN      uint16 = 5
	actSetEthSrc    uint16 = 7
	actSetEthDst    uint16 = 8
	actSelectBucket uint16 = 9 // NumStateBuckets output ports, bucket order
)

func appendActions(b []byte, actions []vswitch.Action) ([]byte, error) {
	for _, a := range actions {
		switch a := a.(type) {
		case vswitch.OutputAction:
			b = binary.BigEndian.AppendUint32(appendTLV(b, actOutput, 4), a.Port)
		case vswitch.SelectBucketAction:
			b = appendTLV(b, actSelectBucket, 4*vswitch.NumStateBuckets)
			for _, p := range a.Ports {
				b = binary.BigEndian.AppendUint32(b, p)
			}
		case vswitch.PushVLANAction:
			b = binary.BigEndian.AppendUint16(appendTLV(b, actPushVLAN, 2), a.VLANID)
		case vswitch.PopVLANAction:
			b = appendTLV(b, actPopVLAN, 0)
		case vswitch.SetEthSrcAction:
			b = append(appendTLV(b, actSetEthSrc, 6), a.MAC[:]...)
		case vswitch.SetEthDstAction:
			b = append(appendTLV(b, actSetEthDst, 6), a.MAC[:]...)
		default:
			return b, fmt.Errorf("openflow: unencodable action %T", a)
		}
	}
	return b, nil
}

// actionLens is the value length of each action TLV type.
var actionLens = map[uint16]int{actOutput: 4, actSelectBucket: 4 * vswitch.NumStateBuckets, actPushVLAN: 2, actPopVLAN: 0, actSetEthSrc: 6, actSetEthDst: 6}

// decodeActions decodes an action section into a slice of exactly its
// length, nil when it is empty.
func decodeActions(b []byte) ([]vswitch.Action, error) {
	n := 0
	if err := eachTLV(b, "action", actionLens, func(uint16, []byte) error { n++; return nil }); err != nil || n == 0 {
		return nil, err
	}
	actions := make([]vswitch.Action, 0, n)
	err := eachTLV(b, "action", actionLens, func(typ uint16, v []byte) error {
		switch typ {
		case actOutput:
			actions = append(actions, vswitch.Output(binary.BigEndian.Uint32(v)))
		case actSelectBucket:
			var ports [vswitch.NumStateBuckets]uint32
			for i := range ports {
				ports[i] = binary.BigEndian.Uint32(v[4*i:])
			}
			actions = append(actions, vswitch.SelectBucket(ports))
		case actPushVLAN:
			actions = append(actions, vswitch.PushVLAN(binary.BigEndian.Uint16(v)))
		case actPopVLAN:
			actions = append(actions, vswitch.PopVLAN())
		case actSetEthSrc:
			actions = append(actions, vswitch.SetEthSrc(pkt.MAC(v)))
		case actSetEthDst:
			actions = append(actions, vswitch.SetEthDst(pkt.MAC(v)))
		}
		return nil
	})
	return actions, err
}
