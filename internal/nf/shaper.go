package nf

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
)

// Shaper is a token-bucket rate limiter, the NF equivalent of Linux's
// native `tc` qdisc. Traffic between ports 0 and 1 is policed to the
// configured rate with the configured burst allowance; excess packets are
// dropped (policing, not queueing, matching a tc police action).
//
// The bucket refills on wall time, read from a monotonic clock the shaper
// owns, so a tenant's policing depends only on its own traffic. It starts
// full.
type Shaper struct {
	rateBps float64 // bits per second
	burst   float64 // bucket capacity, bytes

	mu      sync.Mutex
	now     func() time.Time // time.Now, which reads the monotonic clock; under mu
	tokens  float64          // bytes available
	last    time.Time
	passed  uint64
	dropped uint64
}

// NewShaper builds a shaper policing to rateMbps with burstKB of burst.
func NewShaper(rateMbps float64, burstKB int) (*Shaper, error) {
	return newShaper(rateMbps, burstKB, time.Now)
}

// newShaper builds a shaper that reads time from now.
func newShaper(rateMbps float64, burstKB int, now func() time.Time) (*Shaper, error) {
	rateBps := rateMbps * 1e6
	if !(rateBps > 0) || math.IsInf(rateBps, 1) { // NaN fails the first test
		return nil, fmt.Errorf("nf: shaper rate must be positive and finite, got %v", rateMbps)
	}
	if burstKB <= 0 {
		return nil, fmt.Errorf("nf: shaper burst must be positive, got %v", burstKB)
	}
	burst := float64(burstKB) * 1024
	return &Shaper{
		rateBps: rateBps,
		burst:   burst,
		now:     now,
		tokens:  burst,
		last:    now(),
	}, nil
}

// NewShaperFromConfig builds a shaper from an NF-FG configuration map:
//
//	rate_mbps: policing rate in Mbps (required)
//	burst_kb:  burst allowance in KiB (default 64)
func NewShaperFromConfig(config map[string]string) (Processor, error) {
	rateS, ok := config["rate_mbps"]
	if !ok {
		return nil, fmt.Errorf("nf: shaper config missing rate_mbps")
	}
	rate, err := strconv.ParseFloat(rateS, 64)
	if err != nil {
		return nil, fmt.Errorf("nf: shaper bad rate_mbps %q", rateS)
	}
	burst := 64
	if b, ok := config["burst_kb"]; ok {
		burst, err = strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("nf: shaper bad burst_kb %q", b)
		}
	}
	return NewShaper(rate, burst)
}

// counters returns passed and dropped packet counts.
func (s *Shaper) counters() (passed, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passed, s.dropped
}

// Process implements Processor.
func (s *Shaper) Process(inPort int, frame []byte) (Result, error) {
	return s.ProcessInto(inPort, frame, nil)
}

// ProcessInto implements IntoProcessor.
func (s *Shaper) ProcessInto(inPort int, frame []byte, out []Emission) (Result, error) {
	if inPort != 0 && inPort != 1 {
		return Result{}, fmt.Errorf("nf: shaper has no port %d", inPort)
	}
	s.mu.Lock()
	now := s.now()
	// Refill: rateBps/8 bytes per second.
	s.tokens += now.Sub(s.last).Seconds() * s.rateBps / 8
	if s.tokens > s.burst {
		s.tokens = s.burst
	}
	s.last = now
	need := float64(len(frame))
	if s.tokens < need {
		s.dropped++
		s.mu.Unlock()
		return Result{}, nil
	}
	s.tokens -= need
	s.passed++
	s.mu.Unlock()
	return Result{Emissions: append(out, Emission{Port: 1 - inPort, Frame: frame})}, nil
}
