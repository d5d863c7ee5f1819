//go:build poolcheck

package vswitch

import "repro/internal/pkt"

// outstanding reports pkt.Outstanding: gets − puts of the checked pool.
func outstanding() (n int64, exact bool) { return pkt.Outstanding(), true }
