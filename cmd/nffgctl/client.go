package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// client is nffgctl's HTTP plumbing: bounded retry with exponential backoff
// and jitter on connection errors and on 5xx answers that signal a
// transient control-plane condition (an HA cluster mid-election answers
// 503), and leader-redirect following (an HA follower answers writes with
// 307 + Location; Go's client follows it because send's body is
// rebuildable). So nffgctl works against any replica of a clustered
// control plane, or across a brief failover.
type client struct {
	// http is the underlying client (follows redirects by default).
	http *http.Client
	// attempts bounds how many times a request is tried in total.
	attempts int
	// baseDelay is the first backoff; each retry doubles it (with ±50%
	// jitter) up to maxDelay.
	baseDelay time.Duration
	maxDelay  time.Duration
}

// newClient builds a client with the CLI defaults: 4 attempts, 100ms
// initial backoff doubling to at most 2s, 10s per-request timeout.
func newClient() *client {
	return &client{
		http:      &http.Client{Timeout: 10 * time.Second},
		attempts:  4,
		baseDelay: 100 * time.Millisecond,
		maxDelay:  2 * time.Second,
	}
}

// retryable reports whether an answer is worth retrying: leaderless HA
// clusters and overloaded proxies answer 502/503/504 transiently.
func retryable(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the jittered exponential delay before retry n (0-based).
func (c *client) backoff(n int) time.Duration {
	d := c.baseDelay << n
	if d > c.maxDelay || d <= 0 {
		d = c.maxDelay
	}
	// ±50% jitter decorrelates clients hammering a recovering server.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// send issues method on url, with body (when non-nil) as its JSON body,
// retrying connection errors and retryable status codes with backoff. An
// answer outside 2xx is an error that carries the answer's body.
func (c *client) send(method, url string, body []byte) (*http.Response, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff(attempt - 1))
			if req.GetBody != nil {
				if req.Body, err = req.GetBody(); err != nil {
					return nil, err
				}
			}
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode/100 == 2 {
			return resp, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		if !retryable(resp.StatusCode) {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("after %d attempts: %w", c.attempts, lastErr)
}
