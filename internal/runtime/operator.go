package runtime

import (
	"sync/atomic"
	"time"

	"streambalance/internal/transport"
)

// Operator is a stateless tuple computation: given an input tuple it returns
// the output tuple (Section 2 — stateless PEs are pure functions).
type Operator interface {
	Process(t transport.Tuple) transport.Tuple
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc func(transport.Tuple) transport.Tuple

// Process implements Operator.
func (f OperatorFunc) Process(t transport.Tuple) transport.Tuple {
	return f(t)
}

// Identity returns tuples unchanged. Its operator is a zero-size concrete
// type, not an OperatorFunc: a worker pays one interface call per tuple for
// it, not that call plus a closure call.
func Identity() Operator { return identity{} }

type identity struct{}

func (identity) Process(t transport.Tuple) transport.Tuple { return t }

// SpinOperator burns a configurable number of integer multiplies per tuple —
// the paper's synthetic workload ("base cost of 1,000 integer multiplies").
// The cost can be changed concurrently to emulate external load arriving or
// departing mid-run, as in the Section 6.3/6.4 dynamic experiments.
type SpinOperator struct {
	multiplies atomic.Int64
	// sink absorbs the spin result so the loop cannot be optimized away.
	sink atomic.Int64
}

var _ Operator = (*SpinOperator)(nil)

// NewSpinOperator returns an operator costing the given number of integer
// multiplies per tuple.
func NewSpinOperator(multiplies int64) *SpinOperator {
	op := &SpinOperator{}
	op.multiplies.Store(multiplies)
	return op
}

// SetMultiplies changes the per-tuple cost; safe to call during a run.
func (op *SpinOperator) SetMultiplies(multiplies int64) {
	op.multiplies.Store(multiplies)
}

// Multiplies returns the current per-tuple cost.
func (op *SpinOperator) Multiplies() int64 {
	return op.multiplies.Load()
}

// Process implements Operator: it performs the integer multiplies and passes
// the tuple through unchanged.
func (op *SpinOperator) Process(t transport.Tuple) transport.Tuple {
	n := op.multiplies.Load()
	acc := int64(1)
	x := int64(t.Seq) | 3
	for i := int64(0); i < n; i++ {
		acc *= x
	}
	op.sink.Store(acc)
	return t
}

// serviceQuantum is the smallest sleep ServiceOperator issues. Kernel timer
// granularity can inflate a short sleep by a millisecond or more, so
// sub-quantum service times are accumulated as debt and slept in batches.
const serviceQuantum = time.Millisecond

// ServiceOperator models a fixed per-tuple service time without consuming
// CPU. On machines with fewer cores than workers, SpinOperator cannot
// express a genuine capacity difference — every worker just contends for the
// same cores — so examples and tests emulate a slower host by sleeping
// instead. It stays accurate for service times far below the kernel's sleep
// granularity, where a sleep per tuple would not: each tuple adds its
// service time to a debt counter, the operator sleeps only once the debt
// reaches a quantum, and the sleep's measured overshoot is credited against
// future debt. The effective per-tuple cost converges on the configured
// duration even when individual sleeps are inflated 50x. The service time
// can be changed concurrently; debt is owned by the single worker goroutine
// calling Process.
type ServiceOperator struct {
	serviceNS atomic.Int64
	debt      time.Duration
}

var _ Operator = (*ServiceOperator)(nil)

// NewServiceOperator returns an operator costing d of wall-clock service
// time per tuple.
func NewServiceOperator(d time.Duration) *ServiceOperator {
	op := &ServiceOperator{}
	op.serviceNS.Store(int64(d))
	return op
}

// SetService changes the per-tuple service time; safe to call during a run.
func (op *ServiceOperator) SetService(d time.Duration) {
	op.serviceNS.Store(int64(d))
}

// Service returns the current per-tuple service time.
func (op *ServiceOperator) Service() time.Duration {
	return time.Duration(op.serviceNS.Load())
}

// Process implements Operator: it charges one service time against the debt
// counter, sleeping when a full quantum has accumulated.
func (op *ServiceOperator) Process(t transport.Tuple) transport.Tuple {
	d := time.Duration(op.serviceNS.Load())
	if d <= 0 {
		return t
	}
	op.debt += d
	if op.debt >= serviceQuantum {
		start := time.Now()
		time.Sleep(op.debt)
		op.debt -= time.Since(start)
		// Cap the credit so one long preemption cannot buy an unbounded
		// burst of free tuples afterwards.
		if op.debt < -serviceQuantum {
			op.debt = -serviceQuantum
		}
	}
	return t
}
