package nf

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// ClockUser is implemented by processors whose behaviour depends on time
// (e.g. token buckets). The Runtime injects its execution environment's
// virtual clock so time-dependent NFs advance with simulated time rather
// than the wall clock.
type ClockUser interface {
	SetClock(now func() time.Duration)
}

// Shaper is a token-bucket rate limiter, the NF equivalent of Linux's
// native `tc` qdisc. Traffic between ports 0 and 1 is policed to the
// configured rate with the configured burst allowance; excess packets are
// dropped (policing, not queueing, matching a tc police action).
type Shaper struct {
	rateBps float64 // bits per second
	burst   float64 // bucket capacity, bytes

	mu      sync.Mutex
	now     func() time.Duration
	tokens  float64 // bytes available
	last    time.Duration
	primed  bool
	passed  uint64
	dropped uint64
}

// NewShaper builds a shaper policing to rateMbps with burstKB of burst.
func NewShaper(rateMbps float64, burstKB int) (*Shaper, error) {
	if rateMbps <= 0 {
		return nil, fmt.Errorf("nf: shaper rate must be positive, got %v", rateMbps)
	}
	if burstKB <= 0 {
		return nil, fmt.Errorf("nf: shaper burst must be positive, got %v", burstKB)
	}
	return &Shaper{
		rateBps: rateMbps * 1e6,
		burst:   float64(burstKB) * 1024,
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

// SetClock implements ClockUser.
func (s *Shaper) SetClock(now func() time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
	s.primed = false
}

// counters returns passed and dropped packet counts.
func (s *Shaper) counters() (passed, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passed, s.dropped
}

// Process implements Processor.
func (s *Shaper) Process(inPort int, frame []byte) (Result, error) {
	if inPort != 0 && inPort != 1 {
		return Result{}, fmt.Errorf("nf: shaper has no port %d", inPort)
	}
	s.mu.Lock()
	if s.now == nil {
		// Without a clock the shaper cannot meter; fail closed for
		// visibility rather than silently passing everything.
		s.mu.Unlock()
		return Result{}, fmt.Errorf("nf: shaper has no clock source")
	}
	now := s.now()
	if !s.primed {
		s.tokens = s.burst
		s.last = now
		s.primed = true
	}
	// Refill: rateBps/8 bytes per second of virtual time.
	s.tokens += (now - s.last).Seconds() * s.rateBps / 8
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
	return Result{Emissions: []Emission{{Port: 1 - inPort, Frame: frame}}}, nil
}
