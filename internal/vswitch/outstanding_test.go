//go:build !poolcheck

package vswitch

// outstanding reports pkt.Outstanding under the poolcheck tag; the default
// pool keeps no count.
func outstanding() (n int64, exact bool) { return 0, false }
