package rest_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	un "repro"
	"repro/internal/global"
	"repro/internal/rest"
)

// serve sends one request to h in process and returns the status code.
func serve(h http.Handler, method, path, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code
}

// TestConcurrentPutsOfANewGraph: four PUTs of the same new graph to a fresh
// node are one deploy and three updates to the graph it deployed, decided
// under the graph's lock: every answer is 201 or 200, never a 422 for a
// deploy that lost the race (it was in 8 of 30 rounds while the handler
// looked the graph up and then deployed, with the lock dropped between).
func TestConcurrentPutsOfANewGraph(t *testing.T) {
	const rounds, writers = 30, 4
	for round := 0; round < rounds; round++ {
		node, err := un.NewNode(un.Config{Name: "put-node"})
		if err != nil {
			t.Fatal(err)
		}
		codes := make([]int, writers)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[i] = serve(node.Handler(), http.MethodPut, "/v1/graphs/cpe-vpn", ipsecGraphJSON)
			}()
		}
		wg.Wait()
		node.Close()
		created := 0
		for _, code := range codes {
			switch code {
			case http.StatusCreated:
				created++
			case http.StatusOK:
			default:
				t.Fatalf("round %d: statuses %v, want one 201 and the rest 200", round, codes)
			}
		}
		if created != 1 {
			t.Fatalf("round %d: statuses %v, want one 201 and the rest 200", round, codes)
		}
	}
}

// TestGraphReadersBesideWriters reads a deployed graph over REST and through
// the node's API while other requests change it: the node's GET and stats
// and un.Node's Graph, Placements and InstanceRAM beside PUTs that change the
// IPsec SPI, and the global tier's GET beside PUTs and scales of the same
// graph. Every reader takes the value under the lock that guards it, and
// nothing edits a graph in place, so `go test -race` (make race) finds no
// race here; it found two before graphs became values.
func TestGraphReadersBesideWriters(t *testing.T) {
	const writes = 20
	t.Run("node", func(t *testing.T) {
		node, err := un.NewNode(un.Config{Name: "rw-node"})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		h := node.Handler()
		if code := serve(h, http.MethodPut, "/v1/graphs/cpe-vpn", ipsecGraphJSON); code != http.StatusCreated {
			t.Fatalf("PUT = %d", code)
		}
		readers(t, writes, func(i int) {
			spi := []string{`"spi": "4097"`, `"spi": "4096"`}[i%2]
			if code := serve(h, http.MethodPut, "/v1/graphs/cpe-vpn", strings.Replace(ipsecGraphJSON, `"spi": "4096"`, spi, 1)); code != http.StatusOK {
				t.Errorf("PUT %d = %d", i, code)
			}
		}, func() {
			for _, path := range []string{"/v1/graphs/cpe-vpn", "/v1/graphs/cpe-vpn/stats"} {
				if code := serve(h, http.MethodGet, path, ""); code != http.StatusOK {
					t.Errorf("GET %s = %d", path, code)
				}
			}
			if g, ok := node.Graph("cpe-vpn"); ok {
				g.NFs[0].Config["spi"] = "1" // the caller's copy
			}
			node.Placements("cpe-vpn")
			node.InstanceRAM("cpe-vpn", "vpn")
		})
	})
	t.Run("global", func(t *testing.T) {
		node, err := un.NewNode(un.Config{Name: "n1", Interfaces: []string{"lan", "wan"}, Capabilities: []string{"docker", "nnf:firewall", "nnf:monitor"}})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		orch := global.New(global.Config{})
		if err := orch.AddNode(global.NewLocalNode("n1", node)); err != nil {
			t.Fatal(err)
		}
		h := rest.NewGlobal(orch, nil)
		docker := strings.Replace(twoNFGraphJSON, `"name": "firewall",`, `"name": "firewall", "technology-preference": "docker",`, 1)
		if code := serve(h, http.MethodPut, "/v1/graphs/svc", docker); code != http.StatusCreated {
			t.Fatalf("PUT = %d", code)
		}
		readers(t, writes, func(i int) {
			if i%2 == 0 {
				if code := serve(h, http.MethodPut, "/v1/graphs/svc", docker); code != http.StatusOK {
					t.Errorf("PUT %d = %d", i, code)
				}
			}
			body := []string{`{"replicas": 2}`, `{"replicas": 1}`}[i%2]
			if code := serve(h, http.MethodPost, "/v1/graphs/svc/nfs/fw/scale", body); code != http.StatusOK {
				t.Errorf("scale %d = %d", i, code)
			}
		}, func() {
			if code := serve(h, http.MethodGet, "/v1/graphs/svc", ""); code != http.StatusOK {
				t.Errorf("GET = %d", code)
			}
			if g, ok := orch.Graph("svc"); ok {
				g.NFs[0].Replicas = 7 // the caller's copy
			}
		})
	})
}

// readers runs write(0..writes-1) in one goroutine and read in a loop in
// another until the writes are done.
func readers(t *testing.T, writes int, write func(int), read func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				read()
			}
		}
	}()
	for i := 0; i < writes; i++ {
		write(i)
	}
	close(done)
	wg.Wait()
}
