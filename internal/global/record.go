package global

import (
	"fmt"

	"repro/internal/jsonw"
	"repro/internal/nffg"
)

// A deployment's replicated intent record is declared once, below: one
// jsonw table per object, in the order and with the omitempty rules of the
// types' json tags (Placement has none, so its maps go under their Go
// names). The bytes encodeRecord writes are what json.Marshal(dep) writes,
// byte for byte (FuzzDeploymentRecord holds it to that): replicas on
// either side of an upgrade replay each other's log, and equal state must
// be equal bytes on every replica.
var (
	recordSchema = []jsonw.Field[deployment]{
		{Key: "desired", Read: func(r *jsonw.Reader, dep *deployment) { dep.Desired = nffg.ReadJSON(r) },
			Write: func(w *jsonw.Writer, dep *deployment) { nffg.WriteJSON(w, dep.Desired) }},
		{Key: "subs", Read: func(r *jsonw.Reader, dep *deployment) { dep.Subs = jsonw.ReadMap(r, nffg.ReadJSON) },
			Write: func(w *jsonw.Writer, dep *deployment) { jsonw.WriteMap(w, dep.Subs, nffg.WriteJSON) }},
		{Key: "stitches", Read: func(r *jsonw.Reader, dep *deployment) { dep.Stitches = jsonw.ReadArray(r, stitchSchema, nil) },
			Write: func(w *jsonw.Writer, dep *deployment) { jsonw.WriteArray(w, stitchSchema, dep.Stitches) }},
		{Key: "placement", Read: func(r *jsonw.Reader, dep *deployment) { jsonw.ReadObject(r, placementSchema, &dep.Placement) },
			Write: func(w *jsonw.Writer, dep *deployment) { jsonw.WriteObject(w, placementSchema, &dep.Placement) }},
		{Key: "standby-node", Omit: true, At: func(dep *deployment) any { return &dep.StandbyNode }},
	}
	placementSchema = []jsonw.Field[Placement]{
		{Key: "NFNode", At: func(p *Placement) any { return &p.NFNode }},
		{Key: "EPNode", At: func(p *Placement) any { return &p.EPNode }},
	}
	stitchSchema = []jsonw.Field[stitch]{
		{Key: "ep", At: func(s *stitch) any { return &s.EP }},
		{Key: "src", At: func(s *stitch) any { return &s.Src }},
		{Key: "dst", At: func(s *stitch) any { return &s.Dst }},
		{Key: "path", Omit: true, At: func(s *stitch) any { return &s.Path }},
		{Key: "hops", Read: func(r *jsonw.Reader, s *stitch) { s.Hops = jsonw.ReadArray(r, hopSchema, nil) },
			Write: func(w *jsonw.Writer, s *stitch) { jsonw.WriteArray(w, hopSchema, s.Hops) }},
	}
	hopSchema = []jsonw.Field[stitchHop]{
		{Key: "link", Read: func(r *jsonw.Reader, h *stitchHop) { jsonw.ReadObject(r, linkSchema, &h.Link) },
			Write: func(w *jsonw.Writer, h *stitchHop) { jsonw.WriteObject(w, linkSchema, &h.Link) }},
		{Key: "vlan", At: func(h *stitchHop) any { return &h.VLAN }},
	}
	linkSchema = []jsonw.Field[Link]{
		{Key: "a-node", At: func(l *Link) any { return &l.A }},
		{Key: "a-if", At: func(l *Link) any { return &l.AIf }},
		{Key: "b-node", At: func(l *Link) any { return &l.B }},
		{Key: "b-if", At: func(l *Link) any { return &l.BIf }},
	}
)

// encodeRecord renders dep as its replicated intent record, into a fresh
// slice of exactly its length: the cluster log and store keep the
// proposer's bytes (so no buffer is reused), and spare capacity would stay
// live in the replication windows.
func encodeRecord(dep *deployment) ([]byte, error) { return jsonw.Encode(recordSchema, dep) }

// decodeRecord is the promotion replay's and the follower's read of one
// graph record. It reads what json.Unmarshal read into a deployment, to an
// equal one, but strictly, as the NF-FG is read: a key not exactly one of
// the schema's, or repeated, is refused. So is a record without a desired
// graph or with a null subgraph, which no deployment holds.
func decodeRecord(id string, data []byte) (*deployment, error) {
	dep := new(deployment)
	if err := jsonw.Decode(data, recordSchema, dep); err != nil {
		return nil, fmt.Errorf("global: graph record %q: %w", id, err)
	}
	if dep.Desired == nil {
		return nil, fmt.Errorf("global: graph record %q has no desired graph", id)
	}
	for node, sub := range dep.Subs {
		if sub == nil {
			return nil, fmt.Errorf("global: graph record %q has a null subgraph for node %q", id, node)
		}
	}
	if dep.Subs == nil {
		dep.Subs = make(map[string]*nffg.Graph)
	}
	return dep, nil
}
