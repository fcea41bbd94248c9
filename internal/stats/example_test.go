package stats_test

import (
	"fmt"
	"time"

	"streambalance/internal/stats"
)

// ExampleRateSampler shows the cumulative-counter differencing of Section 3,
// including the transport layer's periodic reset.
func ExampleRateSampler() {
	var s stats.RateSampler
	s.Sample(0, 0) // prime
	rate, _ := s.Sample(time.Second, 0.9)
	fmt.Printf("rate: %.1f s/s\n", rate)
	// Counter reset: the new value is the delta since the reset.
	rate, _ = s.Sample(2*time.Second, 0.5)
	fmt.Printf("rate after reset: %.1f s/s\n", rate)
	// Output:
	// rate: 0.9 s/s
	// rate after reset: 0.5 s/s
}
