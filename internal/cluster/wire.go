package cluster

import (
	"encoding/json"
	"errors"

	"repro/internal/jsonw"
)

// encodeAppend encodes req in one pass, into a buffer of exactly its
// length, as json.Marshal encodes it provided each op's Data is compact,
// HTML-escaped JSON, as the records a leader proposes are: Data is
// appended verbatim. Replicas on either side of an upgrade therefore read
// each other's requests. A snapshot (join and catch-up only) still goes
// through encoding/json.
func encodeAppend(req *AppendRequest) ([]byte, error) {
	var snap []byte
	if req.Snapshot != nil {
		var err error
		if snap, err = json.Marshal(req.Snapshot); err != nil {
			return nil, err
		}
	}
	m := jsonw.Measuring()
	writeAppend(&m, req, snap)
	w := jsonw.Appending(make([]byte, 0, m.Len()))
	writeAppend(&w, req, snap)
	return w.Bytes(), nil
}

func writeAppend(w *jsonw.Writer, req *AppendRequest, snap []byte) {
	w.Raw(`{"cluster-id":`)
	w.String(req.ClusterID)
	w.Raw(`,"leader":`)
	w.String(req.Leader)
	w.Raw(`,"term":`)
	w.Uint(req.Term)
	w.Raw(`,"commit-seq":`)
	w.Uint(req.CommitSeq)
	if snap != nil {
		w.Raw(`,"snapshot":`)
		w.Verbatim(snap)
	}
	if len(req.Ops) > 0 {
		w.Raw(`,"ops":[`)
		for i := range req.Ops {
			op := &req.Ops[i]
			if i > 0 {
				w.Byte(',')
			}
			w.Raw(`{"seq":`)
			w.Uint(op.Seq)
			w.Raw(`,"term":`)
			w.Uint(op.Term)
			w.Raw(`,"kind":`)
			w.String(string(op.Kind))
			w.Raw(`,"key":`)
			w.String(op.Key)
			if len(op.Data) > 0 {
				w.Raw(`,"data":`)
				w.Verbatim(op.Data)
			}
			w.Byte('}')
		}
		w.Byte(']')
	}
	w.Byte('}')
}

// appendSchema and opSchema read an AppendRequest and its ops.
var (
	appendSchema = []jsonw.Field[AppendRequest]{
		{Key: "cluster-id", Read: func(r *jsonw.Reader, q *AppendRequest) { q.ClusterID = r.Str() }},
		{Key: "leader", Read: func(r *jsonw.Reader, q *AppendRequest) { q.Leader = r.Str() }},
		{Key: "term", Read: func(r *jsonw.Reader, q *AppendRequest) { q.Term = r.Uint(64) }},
		{Key: "commit-seq", Read: func(r *jsonw.Reader, q *AppendRequest) { q.CommitSeq = r.Uint(64) }},
		{Key: "snapshot", Read: readSnapshot},
		{Key: "ops", Read: readOps},
	}
	opSchema = []jsonw.Field[Op]{
		{Key: "seq", Read: func(r *jsonw.Reader, op *Op) { op.Seq = r.Uint(64) }},
		{Key: "term", Read: func(r *jsonw.Reader, op *Op) { op.Term = r.Uint(64) }},
		{Key: "kind", Read: func(r *jsonw.Reader, op *Op) { op.Kind = OpKind(r.Str()) }},
		{Key: "key", Read: func(r *jsonw.Reader, op *Op) { op.Key = r.Str() }},
		{Key: "data", Read: func(r *jsonw.Reader, op *Op) { op.Data = r.Raw() }},
	}
)

// decodeAppend decodes a request as json.Unmarshal does, to an equal
// request, except that it refuses a key that is not exactly one of the
// schema's or that appears twice. Each op's Data is a sub-slice of data,
// not a copy. The reader and the request share one allocation: the
// schema's readers reach both.
func decodeAppend(data []byte) (AppendRequest, error) {
	d := &struct {
		r   jsonw.Reader
		req AppendRequest
	}{r: jsonw.Reading(data)}
	jsonw.ReadObject(&d.r, appendSchema, &d.req)
	if d.r.Err() == nil && !d.r.Done() {
		return AppendRequest{}, errors.New("cluster: trailing data after the append request")
	}
	return d.req, d.r.Err()
}

func readSnapshot(r *jsonw.Reader, req *AppendRequest) {
	if raw := r.Raw(); raw != nil && string(raw) != "null" {
		req.Snapshot = new(Snapshot)
		if err := json.Unmarshal(raw, req.Snapshot); err != nil {
			r.Fail(err)
		}
	}
}

// readOps reads the ops, null as nil and [] as empty, as json.Unmarshal
// does. A round carries an op or two: the slice grows by appending, where
// a count would scan each record twice.
func readOps(r *jsonw.Reader, req *AppendRequest) {
	if !r.Array() {
		return
	}
	req.Ops = []Op{}
	for r.Next() {
		req.Ops = append(req.Ops, Op{})
		jsonw.ReadObject(r, opSchema, &req.Ops[len(req.Ops)-1])
	}
}
