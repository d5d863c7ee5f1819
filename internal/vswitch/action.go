package vswitch

import (
	"fmt"

	"repro/internal/pkt"
)

// Action is one packet-processing step of a flow entry. Actions run in list
// order; Output sends a copy of the frame as it is at that point, so
// modifications ordered before an Output are visible on the wire.
type Action interface {
	apply(sw *Switch, ctx *actionContext)
	String() string
}

// actionContext is the mutable per-packet state threaded through an action
// list. ctrs and tx are the counters and the TX coalescer of the lane running
// the packet, so actions account drops against their own lane's counters and
// Output appends to their own lane's egress batches.
type actionContext struct {
	data      []byte
	key       *flowKey
	ctrs      *dpCounters
	tx        *txCoalescer
	hops      int // the ingress frame's hop count, copied onto egress frames
	tableID   int
	gotoTable int // -1 when the pipeline ends here
	dirty     bool
}

// reparse refreshes the flow key after a header modification.
func (c *actionContext) reparse(sw *Switch) {
	inPort, meta := c.key.inPort, c.key.metadata
	_ = extractKey(c.data, inPort, c.key)
	c.key.metadata = meta
}

// OutputAction sends the frame out of a switch port.
type OutputAction struct{ Port uint32 }

// Output is shorthand for OutputAction.
func Output(port uint32) Action { return OutputAction{Port: port} }

func (a OutputAction) apply(sw *Switch, ctx *actionContext) {
	sw.output(a.Port, ctx)
}

func (a OutputAction) String() string { return fmt.Sprintf("output:%d", a.Port) }

// FloodAction sends the frame out of every port except the ingress port.
type FloodAction struct{}

// Flood is shorthand for FloodAction.
func Flood() Action { return FloodAction{} }

func (a FloodAction) apply(sw *Switch, ctx *actionContext) {
	sw.flood(ctx.key.inPort, ctx)
}

func (a FloodAction) String() string { return "flood" }

// ControllerAction punts the frame to the controller as a packet-in.
type ControllerAction struct{}

// ToController is shorthand for ControllerAction.
func ToController() Action { return ControllerAction{} }

func (a ControllerAction) apply(sw *Switch, ctx *actionContext) {
	sw.packetIn(ctx.key.inPort, ctx.tableID, ReasonAction, ctx.data)
}

func (a ControllerAction) String() string { return "controller" }

// PushVLANAction tags the frame with an 802.1Q header.
type PushVLANAction struct{ VLANID uint16 }

// PushVLAN is shorthand for PushVLANAction.
func PushVLAN(id uint16) Action { return PushVLANAction{VLANID: id} }

func (a PushVLANAction) apply(sw *Switch, ctx *actionContext) {
	if len(ctx.data) < pkt.EthernetHeaderLen {
		return
	}
	out := make([]byte, len(ctx.data)+pkt.VLANHeaderLen)
	copy(out, ctx.data[:12])
	// TPID then TCI then the original EtherType and payload.
	out[12] = 0x81
	out[13] = 0x00
	out[14] = byte(a.VLANID >> 8 & 0x0f)
	out[15] = byte(a.VLANID)
	copy(out[16:], ctx.data[12:])
	ctx.data = out
	ctx.dirty = true
	ctx.reparse(sw)
}

func (a PushVLANAction) String() string { return fmt.Sprintf("push_vlan:%d", a.VLANID) }

// PopVLANAction strips the outermost 802.1Q tag, if present.
type PopVLANAction struct{}

// PopVLAN is shorthand for PopVLANAction.
func PopVLAN() Action { return PopVLANAction{} }

func (a PopVLANAction) apply(sw *Switch, ctx *actionContext) {
	d := ctx.data
	if len(d) < pkt.EthernetHeaderLen+pkt.VLANHeaderLen || d[12] != 0x81 || d[13] != 0x00 {
		return
	}
	out := make([]byte, len(d)-pkt.VLANHeaderLen)
	copy(out, d[:12])
	copy(out[12:], d[16:])
	ctx.data = out
	ctx.dirty = true
	ctx.reparse(sw)
}

func (a PopVLANAction) String() string { return "pop_vlan" }

// SetVLANAction rewrites the VLAN ID of an already-tagged frame.
type SetVLANAction struct{ VLANID uint16 }

// SetVLAN is shorthand for SetVLANAction.
func SetVLAN(id uint16) Action { return SetVLANAction{VLANID: id} }

func (a SetVLANAction) apply(sw *Switch, ctx *actionContext) {
	d := ctx.data
	if len(d) < pkt.EthernetHeaderLen+pkt.VLANHeaderLen || d[12] != 0x81 || d[13] != 0x00 {
		return
	}
	d[14] = d[14]&0xf0 | byte(a.VLANID>>8&0x0f)
	d[15] = byte(a.VLANID)
	ctx.dirty = true
	ctx.reparse(sw)
}

func (a SetVLANAction) String() string { return fmt.Sprintf("set_vlan:%d", a.VLANID) }

// SetEthSrcAction rewrites the source MAC.
type SetEthSrcAction struct{ MAC pkt.MAC }

// SetEthSrc is shorthand for SetEthSrcAction.
func SetEthSrc(m pkt.MAC) Action { return SetEthSrcAction{MAC: m} }

func (a SetEthSrcAction) apply(sw *Switch, ctx *actionContext) {
	if len(ctx.data) < pkt.EthernetHeaderLen {
		return
	}
	copy(ctx.data[6:12], a.MAC[:])
	ctx.key.ethSrc = a.MAC
	ctx.dirty = true
}

func (a SetEthSrcAction) String() string { return "set_dl_src:" + a.MAC.String() }

// SetEthDstAction rewrites the destination MAC.
type SetEthDstAction struct{ MAC pkt.MAC }

// SetEthDst is shorthand for SetEthDstAction.
func SetEthDst(m pkt.MAC) Action { return SetEthDstAction{MAC: m} }

func (a SetEthDstAction) apply(sw *Switch, ctx *actionContext) {
	if len(ctx.data) < pkt.EthernetHeaderLen {
		return
	}
	copy(ctx.data[0:6], a.MAC[:])
	ctx.key.ethDst = a.MAC
	ctx.dirty = true
}

func (a SetEthDstAction) String() string { return "set_dl_dst:" + a.MAC.String() }

// SetMetadataAction writes the pipeline metadata register under a mask. The
// register travels with the packet across GotoTable but is not serialized to
// the wire.
type SetMetadataAction struct{ Value, Mask uint64 }

// SetMetadata is shorthand for SetMetadataAction.
func SetMetadata(value, mask uint64) Action { return SetMetadataAction{Value: value, Mask: mask} }

func (a SetMetadataAction) apply(sw *Switch, ctx *actionContext) {
	ctx.key.metadata = ctx.key.metadata&^a.Mask | a.Value&a.Mask
}

func (a SetMetadataAction) String() string {
	return fmt.Sprintf("set_metadata:%#x/%#x", a.Value, a.Mask)
}

// GotoTableAction continues pipeline processing in a later table.
type GotoTableAction struct{ Table int }

// GotoTable is shorthand for GotoTableAction.
func GotoTable(t int) Action { return GotoTableAction{Table: t} }

func (a GotoTableAction) apply(sw *Switch, ctx *actionContext) {
	ctx.gotoTable = a.Table
}

func (a GotoTableAction) String() string { return fmt.Sprintf("goto_table:%d", a.Table) }
