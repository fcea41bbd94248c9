package dataflow

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// Region→region composition: every stage is one runtime.Region, and a stage's
// merger feeds each downstream stage's splitter through a bounded in-process
// edge. The stages form a forest — Execute lowers a Plan onto it, RunChain is
// its linear case with caller-supplied configs. Within a stage the transport
// is whatever its RegionConfig selects (TCP or in-proc, mixed freely across
// stages); between stages the edge is always an in-proc pipe, because the
// stages run in one process.
//
// Ordering composes: stage i releases tuples in sequence order, the edge is
// FIFO, and the next stage's splitter assigns fresh sequence numbers in
// arrival order — so the renumbering is the identity and end-to-end order
// holds.
//
// Back pressure composes too, with no coordination: a slow stage fills its
// input edge, the upstream merger's sink blocks in Send, the merge loop
// stalls, reorder queues hit their caps, that stage's workers park, its
// splitter parks, and eventually the source stalls — the blocking cascade
// crossing every edge and both transports. On a fan-out the slowest branch
// sets the pace for all of them.

const (
	// DefaultEdgeCap bounds a stage-to-stage edge (tuples) when ChainOptions
	// does not choose.
	DefaultEdgeCap = 1024
	// edgeRecvBatch bounds one source-side drain of an edge.
	edgeRecvBatch = 64
)

// ChainOptions tunes stage composition, for RunChain and (embedded in
// ExecConfig) for Execute.
type ChainOptions struct {
	// EdgeCap bounds each stage-to-stage edge in tuples (<= 0 selects
	// DefaultEdgeCap; rounded up to a power of two). The bound is what makes
	// back pressure propagate: an unbounded edge would absorb a slow stage's
	// backlog forever instead of stalling the producer.
	EdgeCap int
}

// ChainResult reports one completed chain run.
type ChainResult struct {
	// Stages holds each stage's RegionResult, in chain order.
	Stages []runtime.RegionResult
	// Elapsed is the whole chain's wall-clock makespan.
	Elapsed time.Duration
}

// RunChain builds and runs the staged regions end to end and blocks until
// every stage completes. cfgs[0] must carry the chain's Source and only
// cfgs[len-1] may carry a Sink; the chain fills every interior edge itself.
// A stage failure does not wedge its neighbors: the failed stage's edges
// close, upstream keeps draining (sends to the dead edge are dropped) and
// downstream completes on what already crossed. All stage errors are joined
// in the returned error.
func RunChain(cfgs []runtime.RegionConfig, opt ChainOptions) (ChainResult, error) {
	n := len(cfgs)
	if n == 0 {
		return ChainResult{}, errors.New("dataflow: chain needs at least one stage")
	}
	if cfgs[0].Source == nil {
		return ChainResult{}, errors.New("dataflow: chain stage 0 needs a source")
	}
	for i := 1; i < n; i++ {
		if cfgs[i].Source != nil {
			return ChainResult{}, fmt.Errorf("dataflow: stage %d source is chain-owned (only stage 0 sets one)", i)
		}
	}
	for i := 0; i < n-1; i++ {
		if cfgs[i].Sink != nil {
			return ChainResult{}, fmt.Errorf("dataflow: stage %d sink is chain-owned (only the last stage sets one)", i)
		}
	}
	stages := make([]stageSpec, n)
	for i, cfg := range cfgs {
		stages[i] = stageSpec{name: fmt.Sprintf("stage %d", i), cfg: cfg, parent: i - 1}
	}
	results, elapsed, err := runStages(stages, opt.EdgeCap)
	return ChainResult{Stages: results, Elapsed: elapsed}, err
}

// stageSpec is one node of the forest runStages executes.
type stageSpec struct {
	name string
	// cfg is the stage's region. A root carries the Source; on any other
	// stage the runner fills it from the inbound edge. Sink, if set, is the
	// stage's own consumer, called after the forward to the downstream edges.
	cfg runtime.RegionConfig
	// parent indexes the upstream stage; negative marks a root.
	parent int
}

// runStages builds one region per stage, wires an edge from every stage to
// each stage naming it as parent, and runs them all to completion. A stage
// that fails to build tears down what was built and returns no results; a
// stage that fails while running closes its outbound edges and its inbound
// receiver so neither neighbor wedges, and the run's errors are joined.
func runStages(stages []stageSpec, edgeCap int) ([]runtime.RegionResult, time.Duration, error) {
	if edgeCap <= 0 {
		edgeCap = DefaultEdgeCap
	}
	n := len(stages)
	in := make([]*transport.InprocReceiver, n) // nil at a root
	out := make([][]*transport.InprocSender, n)
	for i, s := range stages {
		if s.parent >= 0 {
			var tx *transport.InprocSender
			tx, in[i] = transport.InprocPair(edgeCap)
			out[s.parent] = append(out[s.parent], tx)
		}
	}
	closeOut := func(i int) {
		for _, tx := range out[i] {
			tx.Close()
		}
	}

	regions := make([]*runtime.Region, n)
	for i, s := range stages {
		cfg := s.cfg // stage-local copy; the caller's configs are not mutated
		if in[i] != nil {
			cfg.Source = (&edgeSource{rx: in[i]}).next
		}
		if len(out[i]) > 0 {
			// A TCP stage's released payloads alias pooled blocks the merger
			// recycles right after the sink returns, so they must be copied
			// onto the edges; an in-proc stage's payloads are GC-owned end to
			// end and cross by reference.
			cfg.Sink = forwardSink(out[i], cfg.Transport != runtime.TransportInproc, cfg.Sink)
		}
		r, err := runtime.NewRegion(cfg)
		if err != nil {
			for _, built := range regions[:i] {
				built.Close()
			}
			for j := range stages {
				closeOut(j)
				if in[j] != nil {
					in[j].Close()
				}
			}
			return nil, 0, fmt.Errorf("dataflow: build %s: %w", s.name, err)
		}
		regions[i] = r
	}

	start := time.Now()
	results := make([]runtime.RegionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range regions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = regions[i].Run()
			// Finished or failed, downstream sources see EOF once their
			// edges drain.
			closeOut(i)
			if errs[i] != nil {
				errs[i] = fmt.Errorf("dataflow: %s: %w", stages[i].name, errs[i])
				if in[i] != nil {
					// Unwedge upstream: its sink may be parked on this stage's
					// full input edge; closing the receiving end errors those
					// sends, and forwardSink drops the edge.
					in[i].Close()
				}
			}
		}(i)
	}
	wg.Wait()
	return results, time.Since(start), errors.Join(errs...)
}

// edgeSource adapts the receiving end of an edge to the splitter's pull
// Source. It runs on the splitter's send-loop goroutine (the pipe's single
// consumer) and blocks — stalling the downstream stage — while the edge is
// empty. Edge tuples are always refless (the forward sink sends GC-owned
// payloads), so no release bookkeeping crosses the boundary.
type edgeSource struct {
	rx  *transport.InprocReceiver
	buf []transport.Tuple
	pos int
}

func (s *edgeSource) next(uint64) ([]byte, bool) {
	for s.pos >= len(s.buf) {
		var err error
		s.buf, _, err = s.rx.ReceiveBatch(s.buf, edgeRecvBatch)
		s.pos = 0
		if err != nil {
			// io.EOF: upstream stage completed and the edge drained. Any
			// other error means the edge was torn down mid-stream; the
			// stream just ends early and the stage completes on what it got.
			return nil, false
		}
	}
	t := s.buf[s.pos]
	s.pos++
	return t.Payload, true
}

// forwardSink returns a merger sink that pushes each released tuple onto
// every downstream edge and then hands it to the stage's own consumer, if
// any. It runs on the merge goroutine; a full edge blocks the Send, which
// stalls this stage's merge loop — that is the back-pressure hand-off. An
// edge whose Send fails (closed under it: the downstream stage died) is
// dropped from the set, letting this stage drain to completion instead of
// wedging.
func forwardSink(txs []*transport.InprocSender, copyPayloads bool, own func(transport.Tuple, int)) func(transport.Tuple, int) {
	var arena chainArena
	live := append([]*transport.InprocSender(nil), txs...) // txs stays whole for the runner to close
	return func(t transport.Tuple, conn int) {
		if len(live) > 0 {
			out := transport.Tuple{Seq: t.Seq, Payload: t.Payload}
			if copyPayloads {
				out.Payload = arena.copyOf(t.Payload)
			}
			for i := 0; i < len(live); {
				if live[i].Send(out) != nil {
					live = append(live[:i], live[i+1:]...)
				} else {
					i++
				}
			}
		}
		if own != nil {
			own(t, conn)
		}
	}
}

// chainArenaBlock sizes the forward sink's copy arena blocks.
const chainArenaBlock = 64 << 10

// chainArena amortizes the TCP-stage payload copies: payloads are carved out
// of append-only GC-owned blocks (one allocation per 64KiB of payload, never
// recycled), so the copies stay valid for as long as the downstream stage —
// including a recovery-enabled one that retains them for replay — can
// possibly need them.
type chainArena struct{ buf []byte }

func (a *chainArena) copyOf(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	if len(p) > chainArenaBlock {
		c := make([]byte, len(p))
		copy(c, p)
		return c
	}
	if cap(a.buf)-len(a.buf) < len(p) {
		a.buf = make([]byte, 0, chainArenaBlock)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+len(p)]
	c := a.buf[off : off+len(p) : off+len(p)]
	copy(c, p)
	return c
}
