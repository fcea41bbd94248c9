// Package stats provides the small statistical utilities the load balancer
// relies on: a sampler that converts cumulative counters into rates, running
// moment accumulators, and time-series recorders used by the experiment
// harness.
package stats

import "time"

// RateSampler converts a cumulative, monotonically increasing counter into a
// rate by differencing successive samples, exactly as the paper derives the
// blocking rate from the cumulative blocking time (Section 3, Figure 2). The
// data transport layer periodically resets its counters; a sample smaller
// than its predecessor is interpreted as a reset and the new value is treated
// as the delta since the reset.
type RateSampler struct {
	lastValue float64
	lastAt    time.Duration
	primed    bool
}

// Sample records the cumulative counter value observed at time now (an
// offset from an arbitrary epoch, e.g. experiment start) and returns the
// estimated rate (delta value / delta time) since the previous sample. The
// first sample primes the sampler and returns ok=false. A non-positive time
// step also returns ok=false because no rate can be derived from it.
func (s *RateSampler) Sample(now time.Duration, value float64) (rate float64, ok bool) {
	if !s.primed {
		s.lastValue = value
		s.lastAt = now
		s.primed = true
		return 0, false
	}
	dt := now - s.lastAt
	if dt <= 0 {
		return 0, false
	}
	delta := value - s.lastValue
	if delta < 0 {
		// Counter reset by the transport layer: the cumulative value
		// restarted from zero, so the new reading is the delta itself.
		delta = value
	}
	s.lastValue = value
	s.lastAt = now
	return delta / dt.Seconds(), true
}

// SamplerSet is the sampling front end of one splitter: one RateSampler per
// live connection position, fed every connection's cumulative blocking
// counter once per collection interval. It also keeps the schedule of the
// transport's periodic counter reset (Figure 2), so the substrate that owns
// the counters only has to zero them when told to. Not safe for concurrent
// use: the thread that sends is the thread that samples.
type SamplerSet struct {
	samplers   []RateSampler
	resetEvery time.Duration
	lastReset  time.Duration
}

// NewSamplerSet returns a set of n unprimed samplers whose counters are due a
// reset every resetEvery (non-positive: never).
func NewSamplerSet(n int, resetEvery time.Duration) *SamplerSet {
	return &SamplerSet{samplers: make([]RateSampler, n), resetEvery: resetEvery}
}

// Len returns the number of positions sampled.
func (s *SamplerSet) Len() int { return len(s.samplers) }

// Add appends an unprimed sampler for a connection that joined at the end of
// the position space.
func (s *SamplerSet) Add() { s.samplers = append(s.samplers, RateSampler{}) }

// Remove drops position pos; positions above it shift down by one, matching
// the owner's renumbering of its connection slice.
func (s *SamplerSet) Remove(pos int) {
	s.samplers = append(s.samplers[:pos], s.samplers[pos+1:]...)
}

// Sample turns the cumulative readings taken at time now (one per position)
// into the interval's rates; a position whose sampler was not primed yet
// reads 0. When reset is true the counters are due their periodic reset: the
// samplers are already re-primed at zero, and the caller must zero every
// counter it read from before anything else accrues on it.
func (s *SamplerSet) Sample(now time.Duration, cumulative []time.Duration) (rates []float64, reset bool) {
	rates = make([]float64, len(s.samplers))
	for j := range s.samplers {
		rates[j], _ = s.samplers[j].Sample(now, cumulative[j].Seconds())
	}
	if s.resetEvery > 0 && now-s.lastReset >= s.resetEvery {
		for j := range s.samplers {
			s.samplers[j] = RateSampler{lastAt: now, primed: true}
		}
		s.lastReset = now
		reset = true
	}
	return rates, reset
}
