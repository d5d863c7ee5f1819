package cluster

import (
	"math/rand"
	"time"
)

// clock is every source of time and chance a replica consults: the wall
// clock, its timers and the election jitter. A replica is a step function
// of its state, the clock's Now and the message or timer that woke it, so
// a clock that runs virtual time from a seed replays a schedule exactly;
// no other file of this package reads the time or draws a random number.
type clock interface {
	Now() time.Time
	// AfterFunc runs f once d has passed. A peer RPC is sent as a
	// zero-delay AfterFunc whose f makes the call and handles the reply.
	AfterFunc(d time.Duration, f func())
	// Int63n draws uniformly from [0, n).
	Int63n(n int64) int64
}

// wallClock is the real clock: the time package and math/rand.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) {
	if d <= 0 {
		go f()
		return
	}
	time.AfterFunc(d, f)
}

func (wallClock) Int63n(n int64) int64 { return rand.Int63n(n) }
