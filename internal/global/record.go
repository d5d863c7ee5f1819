package global

import (
	"encoding/json"
	"fmt"

	"repro/internal/jsonw"
	"repro/internal/nffg"
)

// encodeRecord renders dep as its replicated intent record. The bytes are
// what json.Marshal(dep) writes, byte for byte (FuzzDeploymentRecord holds
// it to that): replicas on either side of an upgrade replay each other's
// log, and equal state must be equal bytes on every replica. The record is
// written in one pass without reflection, the graphs included, into a fresh
// slice of exactly its length: the cluster log and store keep the proposer's
// bytes (so no buffer is reused), and spare capacity would stay live in the
// replication windows.
func encodeRecord(dep *deployment) (json.RawMessage, error) {
	m := jsonw.Measuring()
	writeRecord(&m, dep)
	if err := m.Err(); err != nil {
		return nil, err
	}
	w := jsonw.Appending(make([]byte, 0, m.Len()))
	writeRecord(&w, dep)
	return w.Bytes(), w.Err()
}

// writeRecord writes dep's fields in the order, and with the omitempty
// rules, of its json tags; Placement has none, so its maps go under their
// Go names.
func writeRecord(w *jsonw.Writer, dep *deployment) {
	w.Raw(`{"desired":`)
	writeGraph(w, dep.Desired)
	w.Raw(`,"subs":`)
	if dep.Subs == nil {
		w.Raw("null")
	} else {
		var a [8]string
		w.Byte('{')
		for i, node := range jsonw.SortedKeys(a[:0], dep.Subs) {
			if i > 0 {
				w.Byte(',')
			}
			w.String(node)
			w.Byte(':')
			writeGraph(w, dep.Subs[node])
		}
		w.Byte('}')
	}
	if len(dep.Stitches) > 0 {
		w.Raw(`,"stitches":[`)
		for i := range dep.Stitches {
			if i > 0 {
				w.Byte(',')
			}
			writeStitch(w, &dep.Stitches[i])
		}
		w.Byte(']')
	}
	w.Raw(`,"placement":{"NFNode":`)
	w.StringMap(dep.Placement.NFNode)
	w.Raw(`,"EPNode":`)
	w.StringMap(dep.Placement.EPNode)
	w.Byte('}')
	if dep.StandbyNode != "" {
		w.Raw(`,"standby-node":`)
		w.String(dep.StandbyNode)
	}
	w.Byte('}')
}

func writeGraph(w *jsonw.Writer, g *nffg.Graph) {
	if g == nil {
		w.Raw("null")
		return
	}
	g.WriteJSON(w)
}

func writeStitch(w *jsonw.Writer, s *stitch) {
	w.Raw(`{"ep":`)
	w.String(s.EP)
	w.Raw(`,"src":`)
	w.String(s.Src)
	w.Raw(`,"dst":`)
	w.String(s.Dst)
	if len(s.Path) > 0 {
		w.Raw(`,"path":[`)
		for i, node := range s.Path {
			if i > 0 {
				w.Byte(',')
			}
			w.String(node)
		}
		w.Byte(']')
	}
	if len(s.Hops) > 0 {
		w.Raw(`,"hops":[`)
		for i, h := range s.Hops {
			if i > 0 {
				w.Byte(',')
			}
			w.Raw(`{"link":{"a-node":`)
			w.String(h.Link.A)
			w.Raw(`,"a-if":`)
			w.String(h.Link.AIf)
			w.Raw(`,"b-node":`)
			w.String(h.Link.B)
			w.Raw(`,"b-if":`)
			w.String(h.Link.BIf)
			w.Raw(`},"vlan":`)
			w.Uint(uint64(h.VLAN))
			w.Byte('}')
		}
		w.Byte(']')
	}
	w.Byte('}')
}

// decodeRecord is the promotion replay's read of one graph record.
func decodeRecord(id string, data json.RawMessage) (*deployment, error) {
	dep := new(deployment)
	if err := json.Unmarshal(data, dep); err != nil {
		return nil, fmt.Errorf("global: graph record %q: %w", id, err)
	}
	if dep.Desired == nil {
		return nil, fmt.Errorf("global: graph record %q has no desired graph", id)
	}
	if dep.Subs == nil {
		dep.Subs = make(map[string]*nffg.Graph)
	}
	return dep, nil
}
