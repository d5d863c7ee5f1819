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
	data []byte
	key  *flowKey
	ctrs *dpCounters
	tx   *txCoalescer
	hops int // the ingress frame's hop count, copied onto egress frames
}

// reparse refreshes the flow key after a tag push or pop, so a later
// SelectBucket hashes the 5-tuple of the frame as it now is.
func (c *actionContext) reparse() {
	_ = extractKey(c.data, c.key.inPort, c.key)
}

// OutputAction sends the frame out of a switch port.
type OutputAction struct{ Port uint32 }

// Output is shorthand for OutputAction.
func Output(port uint32) Action { return OutputAction{Port: port} }

func (a OutputAction) apply(sw *Switch, ctx *actionContext) {
	sw.output(a.Port, ctx)
}

func (a OutputAction) String() string { return fmt.Sprintf("output:%d", a.Port) }

// PushVLANAction tags the frame with an 802.1Q header.
type PushVLANAction struct{ VLANID uint16 }

// PushVLAN is shorthand for PushVLANAction.
func PushVLAN(id uint16) Action { return PushVLANAction{VLANID: id} }

func (a PushVLANAction) apply(sw *Switch, ctx *actionContext) {
	ctx.data = pkt.PushVLAN(ctx.data, a.VLANID)
	ctx.reparse()
}

func (a PushVLANAction) String() string { return fmt.Sprintf("push_vlan:%d", a.VLANID) }

// PopVLANAction strips the outermost 802.1Q tag, if present.
type PopVLANAction struct{}

// PopVLAN is shorthand for PopVLANAction.
func PopVLAN() Action { return PopVLANAction{} }

func (a PopVLANAction) apply(sw *Switch, ctx *actionContext) {
	ctx.data = pkt.PopVLAN(ctx.data)
	ctx.reparse()
}

func (a PopVLANAction) String() string { return "pop_vlan" }

// SetEthSrcAction rewrites the source MAC.
type SetEthSrcAction struct{ MAC pkt.MAC }

// SetEthSrc is shorthand for SetEthSrcAction.
func SetEthSrc(m pkt.MAC) Action { return SetEthSrcAction{MAC: m} }

func (a SetEthSrcAction) apply(sw *Switch, ctx *actionContext) {
	if len(ctx.data) < pkt.EthernetHeaderLen {
		return
	}
	copy(ctx.data[6:12], a.MAC[:])
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
}

func (a SetEthDstAction) String() string { return "set_dl_dst:" + a.MAC.String() }
