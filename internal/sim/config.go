package sim

import (
	"errors"
	"fmt"
	"time"
)

// Default simulator parameters. One simulated "integer multiply" is scaled to
// 1µs (see the package comment for why); buffer capacities are sized so that
// buffer drain times sit well below the sampling interval, preserving the
// paper's separation of time scales between drafting cycles and measurement.
const (
	DefaultMultiplyTime = time.Microsecond
	// DefaultSendCost is the splitter's per-tuple work in multiplies. At
	// 125 multiplies per send, one splitter saturates at 8x the rate of an
	// unloaded worker processing 1,000-multiply tuples — reproducing the
	// paper's observation that "for a base cost of 1,000 integer multiplies
	// per tuple, 8 PEs is the point at which additional parallelism does
	// not improve performance" (Section 6.3).
	DefaultSendCost = 125
	// DefaultInflightCap bounds the per-connection in-flight buffer in
	// tuples (both TCP socket buffers). It is deliberately small: an
	// overloaded connection's buffered backlog gates the ordered merge for
	// InflightCap x service-time, and everything buffered "still takes
	// 100x as long to process" (Section 4.4).
	DefaultInflightCap = 16
	// DefaultMergerCap bounds each connection's reorder queue at the
	// merger. It must absorb roughly InflightCap x (fastest/slowest
	// capacity ratio) tuples so that a slow connection's backlog does not
	// stall the fast connections' workers through head-of-line waiting —
	// which would make the splitter block on fast connections and corrupt
	// the signal the balancer reads.
	DefaultMergerCap      = 8192
	DefaultSampleInterval = time.Second
	DefaultResetInterval  = 16 * time.Second
)

// Snapshot is the per-interval view handed to an Observer: what the
// controller saw and decided at one collection instant.
type Snapshot struct {
	// Now is the virtual time of the sample.
	Now time.Duration
	// BlockingRates holds seconds-blocked-per-second per connection.
	BlockingRates []float64
	// Weights is the allocation vector in force after the policy ran.
	Weights []int
	// Completed is the cumulative count of tuples released by the merger.
	Completed uint64
	// Throughput is tuples per second released since the previous sample.
	Throughput float64
}

// Observer receives one Snapshot per collection interval. The slices in the
// snapshot are owned by the observer (they are fresh copies).
type Observer func(Snapshot)

// Config describes one simulated run of a parallel region.
type Config struct {
	// Hosts is the cluster.
	Hosts []HostSpec
	// PEs places one worker per connection; connection j is PEs[j].
	PEs []PESpec
	// BaseCost is the tuple cost in integer multiplies (Section 6 uses
	// 1,000 / 10,000 / 20,000 / 60,000).
	BaseCost int
	// MultiplyTime scales one multiply to virtual time (default 1µs).
	MultiplyTime time.Duration
	// SendCost is the splitter's per-tuple overhead in multiplies (default
	// DefaultSendCost).
	SendCost int
	// InflightCap bounds each connection's in-flight buffer in tuples,
	// standing in for the sender- and receiver-side TCP socket buffers
	// (default DefaultInflightCap).
	InflightCap int
	// BatchSize is the run length, mirroring the real runtime's run
	// routing: one WRR pick per run of up to BatchSize consecutive tuples,
	// delivered to that connection at one virtual instant; a full connection
	// blocks the splitter mid-run. <= 1 (the default) sends per tuple.
	BatchSize int
	// MergerCap bounds each connection's reorder queue at the merger. The
	// default absorbs routine out-of-order skew (the "boxes on the edges"
	// of Figure 3) so that back pressure reaches the splitter through the
	// buffers of the genuinely overloaded connection — too small a value
	// moves blocking onto fast connections via head-of-line stalls and
	// destroys the metric's signal. It is still finite: under severe
	// imbalance the merge cannot run arbitrarily far ahead of the slow
	// connection's backlog, which is exactly why the Section 4.4
	// transport-level re-routing approach is "too little, too late".
	MergerCap int
	// SampleInterval is the controller's collection interval (default 1s,
	// as in Section 3).
	SampleInterval time.Duration
	// ResetInterval is how often the transport layer resets its cumulative
	// blocking counters (Figure 2); zero selects DefaultResetInterval, a
	// negative value disables resets.
	ResetInterval time.Duration
	// Policy decides the weights. Nil means RoundRobin.
	Policy Policy
	// PostSwitchLoads, when non-nil (one schedule per PE), replaces the
	// PEs' load schedules once LoadSwitchAfterTuples tuples have been
	// released — the paper's "load removed an eighth through the
	// experiment" expressed in work done rather than wall time, so that
	// slow policies experience the switch an eighth through their own
	// (longer) runs. The post-switch schedules are evaluated relative to
	// the switch instant.
	PostSwitchLoads []LoadSchedule
	// LoadSwitchAfterTuples is the released-tuple count that triggers
	// PostSwitchLoads.
	LoadSwitchAfterTuples uint64
	// ServiceJitter adds deterministic pseudo-random noise to every service
	// time: a tuple's cost is scaled by a factor uniform in
	// [1-ServiceJitter, 1+ServiceJitter]. Real hardware is noisy; jitter
	// verifies the balancer does not depend on the simulator's clockwork
	// regularity. Zero (the default) keeps runs exactly reproducible
	// event-for-event; with jitter they are still deterministic for a
	// given Seed.
	ServiceJitter float64
	// Seed drives the jitter PRNG (default 1).
	Seed int64
	// SourceRate, when non-nil, throttles the stream source to the
	// scheduled rate in tuples per second over virtual time (the
	// "multiplier" of each phase is the rate). Nil models the saturated
	// source of the paper's experiments; a phased schedule models the
	// bursty sources Section 5.4 cites as a reason exploration must stay
	// cheap — during a lull nothing blocks and no data arrives, so the
	// model must not unlearn so much that the next burst hurts.
	SourceRate *LoadSchedule
	// RerouteOnBlock enables the Section 4.4 transport-level re-routing
	// experiment: instead of electing to block, the splitter tries the
	// remaining connections and only blocks when all are full.
	RerouteOnBlock bool
	// Duration stops the run at a virtual time (0 = run until TotalTuples).
	Duration time.Duration
	// TotalTuples stops the splitter after this many tuples and runs until
	// the merger has released them all (0 = run until Duration).
	TotalTuples uint64
	// Observer, when set, receives one Snapshot per collection interval.
	Observer Observer
	// Sink, when set, receives every tuple the merger releases, in release
	// order, with the connection that processed it. Used by the downstream
	// operator in examples and by tests asserting the ordering invariant.
	Sink func(seq uint64, conn int)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MultiplyTime <= 0 {
		c.MultiplyTime = DefaultMultiplyTime
	}
	if c.SendCost <= 0 {
		c.SendCost = DefaultSendCost
	}
	if c.InflightCap <= 0 {
		c.InflightCap = DefaultInflightCap
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.MergerCap <= 0 {
		c.MergerCap = DefaultMergerCap
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = DefaultSampleInterval
	}
	if c.ResetInterval == 0 {
		c.ResetInterval = DefaultResetInterval
	}
	if c.Policy == nil {
		c.Policy = RoundRobin{}
	}
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if _, err := validateTopology(c.Hosts, c.PEs); err != nil {
		return err
	}
	if c.PostSwitchLoads != nil && len(c.PostSwitchLoads) != len(c.PEs) {
		return fmt.Errorf("sim: %d post-switch loads for %d PEs", len(c.PostSwitchLoads), len(c.PEs))
	}
	if c.BaseCost <= 0 {
		return fmt.Errorf("sim: base cost %d, want positive", c.BaseCost)
	}
	if c.ServiceJitter < 0 || c.ServiceJitter >= 1 {
		if c.ServiceJitter != 0 {
			return fmt.Errorf("sim: service jitter %v outside [0,1)", c.ServiceJitter)
		}
	}
	if c.Duration <= 0 && c.TotalTuples == 0 {
		return errors.New("sim: need Duration or TotalTuples as a stopping condition")
	}
	return nil
}

// Metrics summarizes one completed run.
type Metrics struct {
	// Policy is the policy name.
	Policy string
	// EndTime is the virtual time at which the run stopped. For
	// TotalTuples runs this is the makespan (the paper's "total execution
	// time").
	EndTime time.Duration
	// Sent and Completed count tuples through the splitter and merger.
	Sent      uint64
	Completed uint64
	// PerConnSent and PerConnCompleted break the counts down by connection.
	PerConnSent      []uint64
	PerConnCompleted []uint64
	// TotalBlocking is each connection's lifetime blocking time (never
	// reset, unlike the sampled counter).
	TotalBlocking []time.Duration
	// Rerouted counts tuples diverted by the Section 4.4 re-routing mode.
	Rerouted uint64
	// FinalWeights is the allocation vector at the end of the run.
	FinalWeights []int
	// FinalThroughput is the mean released-tuple rate over the last quarter
	// of the run (the paper's "final throughput", measured well after any
	// load change).
	FinalThroughput float64
	// LatencyP50, LatencyP99 and LatencyMax summarize per-tuple end-to-end
	// latency (splitter send to in-order release), estimated with constant
	// space. Latency is the motivation the paper opens with; the balancer
	// lowers it by shrinking the slowest connection's queueing.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration
	// MeanThroughput is Completed divided by EndTime.
	MeanThroughput float64
	// MaxReleaseGap is the longest virtual-time gap between consecutive
	// in-order releases — how long the ordered merge was gated at its
	// worst, typically by the most overloaded connection's backlog.
	MaxReleaseGap time.Duration
}
