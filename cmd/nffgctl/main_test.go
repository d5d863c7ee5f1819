package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	un "repro"
	"repro/internal/rest"
)

const natGraphJSON = `{
  "forwarding-graph": {
    "id": "g-nat",
    "VNFs": [
      {"id": "nat", "name": "nat",
       "ports": [{"id": "0"}, {"id": "1"}],
       "technology-preference": "docker",
       "replicas": 3,
       "configuration": {"external_ip": "198.51.100.1"}}
    ],
    "end-points": [
      {"id": "lan", "type": "interface", "interface": {"if-name": "eth0"}},
      {"id": "wan", "type": "interface", "interface": {"if-name": "eth1"}}
    ],
    "big-switch": {"flow-rules": [
      {"id": "r1", "priority": 10, "match": {"port_in": "endpoint:lan"},
       "actions": [{"output_to_port": "vnf:nat:0"}]},
      {"id": "r2", "priority": 10, "match": {"port_in": "vnf:nat:1"},
       "actions": [{"output_to_port": "endpoint:wan"}]}
    ]}
  }
}`

// request is what the server saw of one call.
type request struct {
	method, uri, body string
}

// TestVerbs runs every verb, in the order an operator would, against a
// node's REST interface (rest.New, as the daemon serves it). Each must send
// the request the route expects and print the answer; against a server
// prefix that answers 404 to everything, each must exit 1 and print
// nothing.
func TestVerbs(t *testing.T) {
	node, err := un.NewNode(un.Config{Name: "ctl-node"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	var seen []request
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seen = append(seen, request{r.Method, r.RequestURI, string(body)})
		r.Body = io.NopCloser(bytes.NewReader(body))
		node.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	dir := t.TempDir()
	graph := filepath.Join(dir, "g-nat.json")
	if err := os.WriteFile(graph, []byte(natGraphJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	pcapFile := filepath.Join(dir, "eth0.pcap")

	for _, tc := range []struct {
		args    []string
		want    request
		stdout  string // a line the answer must hold
		stderr  string
		created string // a file the verb must write
	}{
		{args: []string{"deploy", "-dry-run", graph},
			want:   request{"PUT", "/v1/graphs/g-nat?dry-run=true", natGraphJSON},
			stdout: `"dry-run": true`},
		{args: []string{"deploy", graph},
			want:   request{"PUT", "/v1/graphs/g-nat", natGraphJSON},
			stdout: `"status": "deployed"`},
		{args: []string{"get", "g-nat"},
			want:   request{"GET", "/v1/graphs/g-nat", ""},
			stdout: `"id": "g-nat"`},
		{args: []string{"list"},
			want:   request{"GET", "/v1/graphs", ""},
			stdout: `"g-nat"`},
		{args: []string{"status"},
			want:   request{"GET", "/v1/status", ""},
			stdout: `"node": "ctl-node"`},
		{args: []string{"topology"},
			want:   request{"GET", "/v1/topology", ""},
			stdout: "g-nat"},
		{args: []string{"topology", "-format", "dot"},
			want:   request{"GET", "/v1/topology?format=dot", ""},
			stdout: "digraph"},
		{args: []string{"capture", "eth0", "-duration", "20ms", "-o", pcapFile},
			want:    request{"GET", "/v1/capture/eth0?duration=20ms", ""},
			stderr:  "wrote 24 bytes to " + pcapFile,
			created: pcapFile},
		{args: []string{"reflavor", "g-nat", "nat", "docker"},
			want:   request{"POST", "/v1/graphs/g-nat/nfs/nat/reflavor", `{"technology":"docker"}`},
			stdout: `"status": "reflavored"`},
		{args: []string{"scale", "g-nat", "nat", "2"},
			want:   request{"POST", "/v1/graphs/g-nat/nfs/nat/scale", `{"replicas":2}`},
			stdout: `"replicas": 2`},
		{args: []string{"delete", "g-nat"},
			want:   request{"DELETE", "/v1/graphs/g-nat", ""},
			stdout: `"status": "undeployed"`},
	} {
		t.Run(strings.Join(tc.args[:1], " "), func(t *testing.T) {
			seen = nil
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"-server", srv.URL}, tc.args...), &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d, stderr %q", tc.args, code, stderr.String())
			}
			if len(seen) != 1 || seen[0] != tc.want {
				t.Errorf("%v sent %+v, want one %+v", tc.args, seen, tc.want)
			}
			if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("%v printed %q to stdout and %q to stderr, want %q and %q",
					tc.args, stdout.String(), stderr.String(), tc.stdout, tc.stderr)
			}
			if tc.created != "" {
				f, err := os.Open(tc.created)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := rest.NewPcapReader(f).ReadAll(); err != nil {
					t.Errorf("%s: %v", tc.created, err)
				}
				os.Remove(tc.created)
			}

			// The same verb against a prefix the server does not route.
			stdout.Reset()
			stderr.Reset()
			if code := run(append([]string{"-server", srv.URL + "/gone"}, tc.args...), &stdout, &stderr); code != 1 {
				t.Errorf("%v on an HTTP error: exit %d, want 1", tc.args, code)
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), "404 Not Found") {
				t.Errorf("%v on an HTTP error printed %q to stdout and %q to stderr", tc.args, stdout.String(), stderr.String())
			}
			if tc.created != "" {
				if _, err := os.Stat(tc.created); err == nil {
					t.Errorf("%v on an HTTP error wrote %s", tc.args, tc.created)
				}
			}
		})
	}
}

// TestUsage: a command line that names no verb, an unknown one or the
// wrong operands exits 2 with the usage, and sends nothing.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"get"},
		{"delete", "a", "b"},
		{"list", "x"},
		{"deploy"},
		{"topology", "extra"},
		{"capture"},
		{"capture", "eth0", "eth1"},
		{"reflavor", "g"},
		{"scale", "g", "nf"},
		{"-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-server", "http://127.0.0.1:1"}, args...), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: nffgctl") {
			t.Errorf("%v: stderr %q holds no usage", args, stderr.String())
		}
	}
}
