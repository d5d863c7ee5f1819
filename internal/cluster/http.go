package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The HTTP transport carries peer RPCs as JSON POSTs under
// /v1/cluster/rpc/ on each replica's REST listener. The client side is
// HTTPTransport (handed to Options.Transport); the server side is
// RPCHandler, mounted by the REST server. Keeping both ends in this
// package keeps the wire format in one place.

// HTTPTransport dials peers by POSTing to their REST base URLs.
type HTTPTransport struct {
	addrs  map[string]string
	client *http.Client
}

// NewHTTPTransport builds a transport over the peer set. A nil client
// gets a 2 s per-call timeout. Nothing blocks on a call: each runs on its
// own goroutine and its reply is handled when it lands, and a follower
// gets no other append while one is in flight to it. So a hung peer costs
// one goroutine until the timeout, never the leader's lease, which the
// other followers' acknowledgements renew.
func NewHTTPTransport(peers []PeerSpec, client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	addrs := make(map[string]string, len(peers))
	for _, p := range peers {
		addrs[p.ID] = strings.TrimRight(p.Addr, "/")
	}
	return &HTTPTransport{addrs: addrs, client: client}
}

// Dial implements Transport.
func (t *HTTPTransport) Dial(id string) (Peer, error) {
	addr, ok := t.addrs[id]
	if !ok || addr == "" {
		return nil, fmt.Errorf("cluster: no address for peer %q", id)
	}
	return &httpPeer{base: addr, client: t.client}, nil
}

type httpPeer struct {
	base   string
	client *http.Client
}

func (p *httpPeer) post(path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return p.postBody(path, body, reply)
}

func (p *httpPeer) postBody(path string, body []byte, reply any) error {
	resp, err := p.client.Post(p.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, reply)
}

func (p *httpPeer) RequestVote(req VoteRequest) (VoteReply, error) {
	var reply VoteReply
	err := p.post("/v1/cluster/rpc/vote", req, &reply)
	return reply, err
}

// Append encodes req from the allocation that holds the reply: the encoder
// moves its argument to the heap.
func (p *httpPeer) Append(req AppendRequest) (AppendReply, error) {
	call := &struct {
		req   AppendRequest
		reply AppendReply
	}{req: req}
	body, err := encodeAppend(&call.req)
	if err != nil {
		return AppendReply{}, err
	}
	err = p.postBody("/v1/cluster/rpc/append", body, &call.reply)
	return call.reply, err
}

// RPCHandler serves the peer RPC surface; the REST server mounts it under
// /v1/cluster/rpc/. These routes are replica-to-replica plumbing, not
// part of the public API, and deliberately bypass the leader-redirect
// gate (votes and appends must reach followers).
func (c *Cluster) RPCHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/rpc/vote", func(w http.ResponseWriter, r *http.Request) {
		rpc(w, r, unmarshal[VoteRequest], c.RequestVote)
	})
	mux.HandleFunc("/v1/cluster/rpc/append", func(w http.ResponseWriter, r *http.Request) {
		rpc(w, r, decodeAppend, c.Append)
	})
	return mux
}

// rpc answers one peer RPC: 413 for a body over MaxBodyBytes, 400 for one
// that does not decode, 502 when the replica refuses the call.
func rpc[Req, Reply any](w http.ResponseWriter, r *http.Request, decode func([]byte) (Req, error), handle func(Req) (Reply, error)) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := ReadBody(r)
	if err != nil {
		http.Error(w, err.Error(), BodyStatus(err))
		return
	}
	req, err := decode(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply, err := handle(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

func unmarshal[T any](data []byte) (T, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// MaxBodyBytes bounds one request body, on the peer RPC routes and on both
// REST tiers.
const MaxBodyBytes = 16 << 20

// ErrBodyTooLarge is ReadBody's refusal of a body over MaxBodyBytes.
var ErrBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes)

// ReadBody reads r's body whole, into a buffer of exactly its declared
// Content-Length when there is one. A body over MaxBodyBytes is refused
// with ErrBodyTooLarge, unread when its length is declared.
func ReadBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 {
		if n > MaxBodyBytes {
			return nil, ErrBodyTooLarge
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(buf) > MaxBodyBytes {
		return nil, ErrBodyTooLarge
	}
	return buf, nil
}

// BodyStatus is the HTTP status answering a ReadBody failure: 413 for a
// body over MaxBodyBytes, else 400.
func BodyStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
