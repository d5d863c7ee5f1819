package cluster

import "repro/internal/jsonw"

// The append RPC is declared once, below, and its snapshot beside the
// Snapshot type (log.go): one jsonw table per object, in the order and
// with the omitempty rules of the types' json tags.
var (
	appendSchema = []jsonw.Field[AppendRequest]{
		{Key: "cluster-id", At: func(q *AppendRequest) any { return &q.ClusterID }},
		{Key: "leader", At: func(q *AppendRequest) any { return &q.Leader }},
		{Key: "term", At: func(q *AppendRequest) any { return &q.Term }},
		{Key: "commit-seq", At: func(q *AppendRequest) any { return &q.CommitSeq }},
		{Key: "snapshot", Read: func(r *jsonw.Reader, q *AppendRequest) {
			q.Snapshot = new(Snapshot)
			if !jsonw.ReadObject(r, snapshotSchema, q.Snapshot) {
				q.Snapshot = nil
			}
		}, Write: func(w *jsonw.Writer, q *AppendRequest) {
			if q.Snapshot != nil {
				jsonw.WriteObject(w, snapshotSchema, q.Snapshot)
			}
		}},
		{Key: "ops", Read: readOps, Write: func(w *jsonw.Writer, q *AppendRequest) { jsonw.WriteArray(w, opSchema, q.Ops) }},
	}
	opSchema = []jsonw.Field[Op]{
		{Key: "seq", At: func(op *Op) any { return &op.Seq }},
		{Key: "term", At: func(op *Op) any { return &op.Term }},
		{Key: "kind", At: func(op *Op) any { return (*string)(&op.Kind) }},
		{Key: "key", At: func(op *Op) any { return &op.Key }},
		{Key: "data", Read: func(r *jsonw.Reader, op *Op) { op.Data = r.Raw() },
			Write: func(w *jsonw.Writer, op *Op) { w.Verbatim(op.Data) }},
	}
)

// readOps reads the ops as jsonw.ReadArray would, null as nil and [] as
// empty, but grows the slice by appending: a round carries an op or two,
// and counting them first would scan each record twice.
func readOps(r *jsonw.Reader, q *AppendRequest) {
	if !r.Array() {
		return
	}
	q.Ops = []Op{}
	for r.Next() {
		q.Ops = append(q.Ops, Op{})
		jsonw.ReadObject(r, opSchema, &q.Ops[len(q.Ops)-1])
	}
}

// encodeAppend encodes req into a buffer of exactly its length, as
// json.Marshal encodes it provided each op's Data and each snapshot record
// is compact, HTML-escaped JSON, as the records a leader proposes are: they
// are written verbatim. Replicas on either side of an upgrade therefore
// read each other's requests. req escapes to the heap (jsonw.Encode).
func encodeAppend(req *AppendRequest) ([]byte, error) { return jsonw.Encode(appendSchema, req) }

// decodeAppend decodes a request as json.Unmarshal does, to an equal
// request, except that it refuses a key that is not exactly one of the
// schema's or that appears twice. Each op's Data, and each snapshot record,
// is a sub-slice of data, not a copy.
func decodeAppend(data []byte) (AppendRequest, error) {
	var req AppendRequest
	if err := jsonw.Decode(data, appendSchema, &req); err != nil {
		return AppendRequest{}, err
	}
	return req, nil
}
