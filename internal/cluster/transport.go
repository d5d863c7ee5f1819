package cluster

import (
	"fmt"
	"sync"

	"repro/internal/jsonw"
)

// VoteRequest asks a peer for its vote in one election term.
type VoteRequest struct {
	ClusterID string `json:"cluster-id"`
	Candidate string `json:"candidate"`
	Term      uint64 `json:"term"`
	// Pre marks a pre-vote: would the receiver grant this vote? It runs
	// the vote's checks and changes no state on either side.
	Pre bool `json:"pre,omitempty"`
	// LastTerm/LastSeq identify the candidate's newest applied op: voters
	// refuse candidates whose history is behind their own — ordered by
	// (LastTerm, LastSeq), the Raft election restriction — so a stale
	// replica, even one whose divergent uncommitted suffix matches the
	// committed history in length, cannot win an election and lose
	// committed intent.
	LastTerm uint64 `json:"last-term"`
	LastSeq  uint64 `json:"last-seq"`
}

// VoteReply is the voter's answer.
type VoteReply struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// AppendRequest is the leader's replication heartbeat: the ops the
// follower has not acknowledged yet, plus (for a follower too far behind
// the log window) a full snapshot to restart from. An empty Ops slice is a
// pure lease-renewal heartbeat.
type AppendRequest struct {
	ClusterID string `json:"cluster-id"`
	Leader    string `json:"leader"`
	Term      uint64 `json:"term"`
	CommitSeq uint64 `json:"commit-seq"`
	// Snapshot, when non-nil, replaces the follower's intent store before
	// Ops are applied (snapshot + catch-up for joiners).
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	Ops      []Op      `json:"ops,omitempty"`
}

// AppendReply acknowledges replicated intent.
type AppendReply struct {
	Term uint64 `json:"term"`
	// Acked is the receiver's highest contiguously-applied sequence
	// number; the leader's commit point is the quorum minimum of these.
	Acked uint64 `json:"acked"`
	Ok    bool   `json:"ok"`
}

// Peer is the RPC surface one replica exposes to the rest of the cluster.
// *Cluster implements it; transports carry it between processes.
type Peer interface {
	// RequestVote asks for the receiver's vote in an election term.
	RequestVote(req VoteRequest) (VoteReply, error)
	// Append delivers replicated intent ops (or a bare heartbeat).
	Append(req AppendRequest) (AppendReply, error)
}

// Transport resolves peer ids to reachable Peer handles. A replica dials
// as it sends, under its lock, so Dial must return at once and must not
// call into the replica; the Peer's calls run unlocked.
type Transport interface {
	Dial(id string) (Peer, error)
}

// PeerSpec names one replica and the base URL its REST surface answers on.
// Addr doubles as the advertised redirect target for follower writes; the
// in-process transport ignores it.
type PeerSpec struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// LocalNetwork is the in-process transport: a registry of co-resident
// replicas with injectable failures — a member can be taken down entirely
// (process kill) or partitioned from specific peers (split brain). Tests
// and the chaos harness drive elections and fencing through it.
type LocalNetwork struct {
	mu    sync.Mutex
	peers map[string]Peer
	down  map[string]bool
	cut   map[[2]string]bool // {a, b} with a<b: the pair cannot talk
}

// NewLocalNetwork builds an empty in-process transport fabric.
func NewLocalNetwork() *LocalNetwork {
	return &LocalNetwork{
		peers: make(map[string]Peer),
		down:  make(map[string]bool),
		cut:   make(map[[2]string]bool),
	}
}

// Register attaches a replica to the fabric under its id.
func (n *LocalNetwork) Register(id string, p Peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = p
}

// SetDown makes a replica unreachable from everyone (true) or reachable
// again (false) — the process-kill fault.
func (n *LocalNetwork) SetDown(id string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = down
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition severs the pairwise path between two replicas; both directions
// fail until Heal. Other paths are untouched, so asymmetric-majority
// partitions are composed from pairs.
func (n *LocalNetwork) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[pairKey(a, b)] = true
}

// Heal restores the pairwise path between two replicas.
func (n *LocalNetwork) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, pairKey(a, b))
}

// Isolate cuts one replica off from every currently-registered peer — the
// full network partition the fencing scenario needs.
func (n *LocalNetwork) Isolate(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.peers {
		if other != id {
			n.cut[pairKey(id, other)] = true
		}
	}
}

// Rejoin heals every cut involving the replica.
func (n *LocalNetwork) Rejoin(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.peers {
		delete(n.cut, pairKey(id, other))
	}
}

func (n *LocalNetwork) reach(from, to string) (Peer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down[from] {
		return nil, fmt.Errorf("cluster: %q is down", from)
	}
	if n.down[to] {
		return nil, fmt.Errorf("cluster: %q is down", to)
	}
	if n.cut[pairKey(from, to)] {
		return nil, fmt.Errorf("cluster: %q and %q are partitioned", from, to)
	}
	p, ok := n.peers[to]
	if !ok {
		return nil, fmt.Errorf("cluster: no peer %q", to)
	}
	return p, nil
}

// Transport returns the fabric as seen from one replica: every Dial checks
// the current fault set before handing out the peer.
func (n *LocalNetwork) Transport(self string) Transport {
	return &localTransport{net: n, self: self}
}

type localTransport struct {
	net  *LocalNetwork
	self string
}

type localPeer struct {
	net      *LocalNetwork
	from, to string
}

// Dial implements Transport. The returned peer re-checks reachability on
// every call, so a partition injected after Dial still cuts the path.
func (t *localTransport) Dial(id string) (Peer, error) {
	return &localPeer{net: t.net, from: t.self, to: id}, nil
}

func (p *localPeer) RequestVote(req VoteRequest) (VoteReply, error) {
	peer, err := p.net.reach(p.from, p.to)
	if err != nil {
		return VoteReply{}, err
	}
	return peer.RequestVote(req)
}

// Append carries req across the in-process fabric as the HTTP transport
// carries it: encoded by the append codec and decoded again on the far
// side, so tests over LocalNetwork cover what survives the wire (the
// records replay byte for byte, each op's Data aliases the request buffer
// the follower decoded). The request sent and the one received are one
// allocation, used in turn: the codec moves either to the heap.
func (p *localPeer) Append(req AppendRequest) (AppendReply, error) {
	peer, err := p.net.reach(p.from, p.to)
	if err != nil {
		return AppendReply{}, err
	}
	msg := new(AppendRequest)
	*msg = req
	data, err := encodeAppend(msg)
	if err != nil {
		return AppendReply{}, err
	}
	*msg = AppendRequest{}
	if err := jsonw.Decode(data, appendSchema, msg); err != nil {
		return AppendReply{}, err
	}
	return peer.Append(*msg)
}
