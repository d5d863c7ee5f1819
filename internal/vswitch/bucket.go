package vswitch

import (
	"fmt"

	"repro/internal/pkt"
)

// Consistent-hash flow steering for scaled-out stateful NFs.
//
// A logical NF running as N replicas owns the flow space in units of
// buckets: every transport 5-tuple maps to one of NumStateBuckets buckets,
// and a bucket is assigned to exactly one replica at a time. The bucket
// function is shared by three parties that must agree packet for packet:
// the SelectBucket steering action below, the NFs' flow-state export
// filters (which state moves when a bucket moves), and the orchestrator's
// rebalancer (which buckets move on scale-up/-down). It therefore hashes
// only the 5-tuple — not MACs or VLAN tags, which an NF cannot predict for
// the return direction — and runs the same hashMix rounds as the worker-RSS
// flow-key hash, but under a fixed seed: the RSS/cache seed is per-switch
// random, which is fine for steering packets to workers (any stable
// assignment works) but useless for parties that never see the switch.

// NumStateBuckets is the number of consistent-hash steering buckets. 64
// buckets over single-digit replica counts keeps the largest/smallest
// replica share within ~2x while bounding the steering table and the
// rebalance granularity.
const NumStateBuckets = 64

// bucketSeed is the fixed seed of the bucket hash (an arbitrary odd
// constant; only its stability matters).
const bucketSeed = 0x5ca1ab1e0ddba11d

// FlowBucket maps a transport 5-tuple to its steering bucket in
// [0, NumStateBuckets). The hash is SYMMETRIC — both directions of a
// connection land in the same bucket (endpoints are order-normalized
// before mixing, like symmetric RSS). That is load-bearing for stateful
// NFs whose two directions carry the same addresses (firewall conntrack:
// the reply to A:p→B:q is B:q→A:p, and the replica holding the conntrack
// entry must see it). NFs that rewrite addresses (NAT) get no such
// guarantee from the hash alone and instead constrain their external-port
// allocation so the rewritten return flow hashes back to the same bucket.
//
// Non-IP and portless flows collapse onto the all-zero tuple's bucket,
// which is exactly the stability the steering needs: such frames all land
// on one replica instead of spraying.
func FlowBucket(proto pkt.IPProtocol, src, dst pkt.Addr, srcPort, dstPort uint16) int {
	a := uint64(src.Uint32())<<16 | uint64(srcPort)
	b := uint64(dst.Uint32())<<16 | uint64(dstPort)
	if b < a {
		a, b = b, a
	}
	h := hashMix(bucketSeed, a)
	h = hashMix(h, b<<8|uint64(proto))
	return int(h % NumStateBuckets)
}

// SelectBucketAction steers the frame to one of several ports by the
// consistent-hash bucket of its 5-tuple: the scale-out fan-out installed in
// place of a plain Output when the destination NF runs as multiple
// replicas. The action recomputes the bucket per packet from the live flow
// key, so it stays correct under microflow-cache replay (replay re-executes
// the action list for every packet of the cached flow).
type SelectBucketAction struct {
	// Ports maps bucket index -> output port; must have NumStateBuckets
	// entries.
	Ports [NumStateBuckets]uint32
}

// SelectBucket builds the action from a bucket->port table.
func SelectBucket(ports [NumStateBuckets]uint32) Action {
	return SelectBucketAction{Ports: ports}
}

func (a SelectBucketAction) apply(sw *Switch, ctx *actionContext) {
	b := FlowBucket(ctx.key.ipProto, ctx.key.ipSrc, ctx.key.ipDst, ctx.key.l4Src, ctx.key.l4Dst)
	sw.output(a.Ports[b], ctx)
}

func (a SelectBucketAction) String() string {
	// Render the distinct ports with their bucket counts, not 64 entries.
	counts := make(map[uint32]int)
	order := make([]uint32, 0, 4)
	for _, p := range a.Ports {
		if counts[p] == 0 {
			order = append(order, p)
		}
		counts[p]++
	}
	s := "select_bucket:"
	for i, p := range order {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d(x%d)", p, counts[p])
	}
	return s
}
