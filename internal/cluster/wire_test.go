package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// wireStrings covers every escape class of a JSON string.
var wireStrings = []string{"", "g1", "svc/chain-6", `"quoted" \back\`, "<script>&</script>", "\b\f\n\r\t\x00\x1f\x7f",
	"line\u2028para\u2029", "bad \xff utf8 \xe2\x80", "é日本語🙂"}

// randomAppend builds a request as a leader sends it: Data and snapshot
// records are what json.Marshal writes (compact, HTML-escaped); Data may be
// empty or absent. A snapshot holds several categories, nil, empty or with
// several records each.
func randomAppend(rng *rand.Rand) AppendRequest {
	pick := func() string { return wireStrings[rng.Intn(len(wireStrings))] }
	record := func(i int) json.RawMessage {
		data, err := json.Marshal(map[string]any{pick(): []any{pick(), rng.Float64(), nil, true, map[string]int{pick(): i}}})
		if err != nil {
			panic(err)
		}
		return data
	}
	req := AppendRequest{ClusterID: pick(), Leader: pick(), Term: rng.Uint64() >> rng.Intn(64), CommitSeq: uint64(rng.Intn(1000))}
	if rng.Intn(8) == 0 {
		req.Snapshot = &Snapshot{Seq: uint64(rng.Intn(100)), Term: uint64(rng.Intn(3))}
		if n := rng.Intn(4); n > 0 || rng.Intn(2) == 0 {
			req.Snapshot.Records = make(map[string]map[string]json.RawMessage, n)
			for c := 0; c < n; c++ {
				var records map[string]json.RawMessage
				if k := rng.Intn(4) - 1; k >= 0 {
					records = make(map[string]json.RawMessage, k)
					for i := 0; i < k; i++ {
						records[pick()] = record(i)
					}
				}
				req.Snapshot.Records[pick()] = records
			}
		}
	}
	n := rng.Intn(4)
	if n > 0 || rng.Intn(2) == 0 {
		req.Ops = make([]Op, n)
	}
	for i := range req.Ops {
		op := Op{Seq: rng.Uint64(), Term: uint64(rng.Intn(5)), Kind: OpKind(pick()), Key: pick()}
		switch rng.Intn(3) {
		case 0:
			op.Data = json.RawMessage{}
		case 1:
			op.Data = record(i)
		}
		req.Ops[i] = op
	}
	return req
}

// TestAppendWireMatchesEncodingJSON: on seeded random requests the encoder
// writes exactly json.Marshal's bytes into a buffer of exactly their size,
// and the decoder reads them to the request json.Unmarshal reads.
func TestAppendWireMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		req := randomAppend(rng)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeAppend(&req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || len(got) != cap(got) {
			t.Fatalf("request %d encodes (len %d, cap %d)\n got %s\nwant %s", i, len(got), cap(got), got, want)
		}
		var oracle AppendRequest
		if err := json.Unmarshal(got, &oracle); err != nil {
			t.Fatal(err)
		}
		decoded, err := decodeAppend(got)
		if err != nil {
			t.Fatalf("request %d: %v\n%s", i, err, got)
		}
		if !reflect.DeepEqual(decoded, oracle) {
			t.Fatalf("request %d decodes to\n%+v\nencoding/json\n%+v", i, decoded, oracle)
		}
	}
}

// FuzzAppendWire: whatever the append decoder accepts, json.Unmarshal
// accepts too and decodes to an equal request. The decoder may refuse more
// (a case-folded, repeated or unknown key); never less.
func FuzzAppendWire(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		req := randomAppend(rng)
		data, err := encodeAppend(&req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`null`, `{}`, `{"ops":null}`, `{"ops":[]}`, `{"ops":[null,{}]}`, `{"ops":[{"data":null}]}`,
		`{"ops":[{"data": [1, {"a" : 2}] }]}`, `{"snapshot":null}`, `{"snapshot":{}}`, `{"Term":1}`, `{"term":1,"term":2}`,
		`{"term":-1}`, `{"term":1.0}`, `{"term":18446744073709551616}`, `{"leader":"\ud800"}`, `{"cluster-id":"a"} x`,
		`{"snapshot":{"records":null}}`, `{"snapshot":{"records":{"graphs":null}}}`, `{"snapshot":{"seq":1,"seq":2}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeAppend(data)
		if err != nil {
			return
		}
		var want AppendRequest
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decoder accepts what encoding/json refuses (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decodes to\n%+v\nencoding/json\n%+v", data, got, want)
		}
	})
}

// TestAppendWireAliasesData: a decoded op's Data is a capped sub-slice of
// the request buffer, so the follower keeps the bytes it received without
// a copy, and appending to one record cannot write into the next.
func TestAppendWireAliasesData(t *testing.T) {
	req := AppendRequest{ClusterID: "c", Leader: "a", Term: 1, Ops: []Op{
		{Seq: 1, Term: 1, Kind: OpDeploy, Key: "g1", Data: json.RawMessage(`{"id":"g1"}`)},
		{Seq: 2, Term: 1, Kind: OpDeploy, Key: "g2", Data: json.RawMessage(`{"id":"g2"}`)},
	}}
	buf, err := encodeAppend(&req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAppend(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range got.Ops {
		start := bytes.Index(buf, op.Data)
		if start < 0 || &buf[start] != &op.Data[0] || cap(op.Data) != len(op.Data) {
			t.Errorf("op %d: Data %s does not alias the request buffer, capped", i, op.Data)
		}
	}
}

// TestRPCBodyLimit: a peer RPC body over MaxBodyBytes is refused with 413,
// whether its length is declared or not, and leaves the replica's intent
// store as it was; a body at the limit is read (and refused as JSON).
func TestRPCBodyLimit(t *testing.T) {
	network := NewLocalNetwork()
	c, err := New(Options{ID: "a", ClusterID: "limit", Peers: []PeerSpec{{ID: "a", Addr: "http://a"}}, Transport: network.Transport("a")})
	if err != nil {
		t.Fatal(err)
	}
	network.Register("a", c)
	h := c.RPCHandler()
	before := c.Store().Snapshot()
	for _, tc := range []struct {
		size     int
		declared bool
		want     int
	}{
		{MaxBodyBytes + 1, true, http.StatusRequestEntityTooLarge},
		{MaxBodyBytes + 1, false, http.StatusRequestEntityTooLarge},
		{MaxBodyBytes, true, http.StatusBadRequest},
	} {
		body := []byte(`{"cluster-id":"limit","leader":"b","term":9,"ops":[{"seq":1,"term":9,"kind":"deploy","key":"g","data":"` +
			strings.Repeat("x", tc.size) + `"}]}`)[:tc.size]
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/rpc/append", bytes.NewReader(body))
		if !tc.declared {
			req.ContentLength = -1
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != tc.want {
			t.Errorf("%d-byte body (length declared %v): %d, want %d", tc.size, tc.declared, w.Code, tc.want)
		}
	}
	if after := c.Store().Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("refused appends changed the store: %+v -> %+v", before, after)
	}
}
