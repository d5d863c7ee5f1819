package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func fastClient() *client {
	c := newClient()
	c.baseDelay = time.Millisecond
	c.maxDelay = 4 * time.Millisecond
	return c
}

func TestRetriesConnectionErrors(t *testing.T) {
	// A server that exists only from the second attempt on: simulate with
	// a closed listener address first... instead, count attempts against a
	// server that drops the first two via 503.
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&hits, 1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	resp, err := fastClient().send(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if n := atomic.LoadInt32(&hits); n != 3 {
		t.Fatalf("server hit %d times, want 3", n)
	}
}

func TestGivesUpAfterAttempts(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := fastClient()
	c.attempts = 3
	resp, err := c.send(http.MethodGet, srv.URL, nil)
	if err == nil {
		// The final attempt's response is returned as-is (callers see the
		// real status); both shapes are acceptable, but the server must
		// have been tried exactly attempts times.
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if n := atomic.LoadInt32(&hits); n != 3 {
		t.Fatalf("server hit %d times, want 3", n)
	}
}

func TestConnectionErrorThenSuccess(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	addr := srv.URL
	srv.Close() // nothing listening: pure connection errors
	c := fastClient()
	c.attempts = 2
	if _, err := c.send(http.MethodGet, addr, nil); err == nil {
		t.Fatal("expected error against closed server")
	}
}

// Writes must survive a 307 leader redirect: the body is replayed to the
// redirect target (this is what an HA follower does with writes).
func TestFollowsWriteRedirectWithBody(t *testing.T) {
	var got []byte
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer leader.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, leader.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer follower.Close()

	resp, err := fastClient().send(http.MethodPut, follower.URL+"/v1/graphs/g1", []byte(`{"id":"g1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d, want 201", resp.StatusCode)
	}
	if string(got) != `{"id":"g1"}` {
		t.Fatalf("leader received body %q", got)
	}
}

// A follower answering 503 during an election, then redirecting once a
// leader exists, ends in a committed write.
func TestElectionThenRedirect(t *testing.T) {
	var leaderHits int32
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&leaderHits, 1)
		w.WriteHeader(http.StatusOK)
	}))
	defer leader.Close()
	var phase int32
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&phase, 1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		http.Redirect(w, r, leader.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer follower.Close()

	resp, err := fastClient().send(http.MethodPost, follower.URL+"/v1/links", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if atomic.LoadInt32(&leaderHits) != 1 {
		t.Fatalf("leader hit %d times", leaderHits)
	}
}

func TestBackoffBounds(t *testing.T) {
	c := newClient()
	for n := 0; n < 10; n++ {
		d := c.backoff(n)
		if d < c.baseDelay/2 || d > c.maxDelay+c.maxDelay/2 {
			t.Fatalf("backoff(%d) = %v out of bounds", n, d)
		}
	}
}
