package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streambalance/internal/transport"
)

// regionWorker is the region's view of one worker PE, satisfied by the TCP
// *Worker (its own process in the deployed system, a goroutine serving real
// sockets here) and by *inprocWorker (a goroutine on shared-memory edges).
// The region drives both identically: Start, Wait for completion, Close to
// interrupt.
type regionWorker interface {
	SetCombiner(c Combiner)
	CombinerHits() uint64
	Start()
	Wait() error
	Close()
}

var (
	_ regionWorker = (*Worker)(nil)
	_ regionWorker = (*inprocWorker)(nil)
)

// forwarder is a worker's output edge as its loop uses it: a TCP sender to
// the merger, or in-proc the merger's ingest itself (ingestEdge).
type forwarder interface {
	SendBatch(ts []transport.Tuple) error
	Close() error
}

// pe is the part of a worker that does not depend on the transport: the
// operator, the optional combiner, and the one receive-batch → process →
// send-batch loop both worker kinds run. Worker and inprocWorker embed it and
// differ only in how they obtain the edge pair they hand to serve.
type pe struct {
	id       int
	operator Operator
	combiner Combiner
	hits     atomic.Uint64
	carriers carrierTable     // the combiner's, reused across forwards
	now      func() time.Time // replaceable for tests; nil is time.Now

	// mu guards closed and the edge pair in service, so Close can sever a
	// loop parked on either edge.
	mu     sync.Mutex
	closed bool
	rx     transport.BatchReceiver
	tx     forwarder

	done chan struct{}
	err  error
}

// SetCombiner installs a per-key partial-aggregation stage between the
// operator and the forward to the merger: same-key results within one
// processed batch fold into their lowest-seq carrier (see Combiner). Call
// before Start.
func (p *pe) SetCombiner(c Combiner) { p.combiner = c }

// CombinerHits reports how many tuples the combiner has absorbed into
// same-key carriers so far.
func (p *pe) CombinerHits() uint64 {
	return p.hits.Load()
}

// Wait blocks until the worker exits and returns its error, if any.
func (p *pe) Wait() error {
	<-p.done
	return p.err
}

func (p *pe) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// interrupt marks the worker closed and closes the edge pair in service, so
// a loop parked on an empty input or a full output wakes and exits.
func (p *pe) interrupt() {
	p.mu.Lock()
	p.closed = true
	rx, tx := p.rx, p.tx
	p.mu.Unlock()
	if rx != nil {
		rx.Close()
		tx.Close()
	}
}

// serve runs the worker loop over one edge pair until the input ends, and
// closes both edges on the way out: closing tx is what propagates completion
// (the merger's reader sees EOF once the edge drains), closing rx fails the
// splitter's sends instead of leaving them parked on a worker that is gone.
// An exit caused by Close is clean on every transport — a receive or forward
// that Close interrupted is not a worker failure.
func (p *pe) serve(rx transport.BatchReceiver, tx forwarder) error {
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.rx, p.tx = rx, tx
	}
	p.mu.Unlock()
	var err error
	if !closed {
		err = p.workLoop(rx, tx)
	}
	tx.Close()
	rx.Close()
	p.mu.Lock()
	p.rx, p.tx = nil, nil
	closed = p.closed
	p.mu.Unlock()
	if closed {
		return nil
	}
	return err
}

// forwardHold bounds how long a pass holds processed output back: a fast
// operator forwards a whole TCP read with one write; a slow one forwards at
// the first chunk boundary past it, near the cadence a 64-tuple pass gave it.
// DESIGN §4b has the derivation.
const forwardHold = time.Millisecond

// workLoop is the worker's data path: each pass ingests every tuple the
// splitter already delivered — one read's worth on TCP, a ring span of up to
// transport.DefaultRecvBatch in-proc — processes it in place in chunks of
// transport.DefaultRecvBatch, and forwards it as one batch, unless
// forwardHold passes while it holds processed output: then it forwards what
// is done at the next chunk boundary, restarts the clock and goes on. A
// combiner folds within each forward. After each forward the loop acks the
// input tuples it has finished with, absorbed ones included, as a running
// count: the credit the splitter bounds the edge's in-flight tuples by
// (DESIGN §4b). Ownership: ReceiveBatch hands the loop one block reference
// per input tuple (none on an in-proc edge, whose payloads are GC-owned); the
// combiner's absorbed tuples give theirs back here, and the survivors' are
// released once SendBatch has returned — a TCP edge is done with the payloads
// by then, an in-proc edge carries only GC-owned ones. A failed forward
// releases the unforwarded tuples' too.
func (p *pe) workLoop(rx transport.BatchReceiver, tx forwarder) error {
	if p.now == nil {
		p.now = time.Now
	}
	var batch []transport.Tuple
	var acked uint64
	for {
		var ref *transport.BlockRef
		var err error
		batch, ref, err = rx.ReceiveBatch(batch, 0)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("runtime: worker %d receive: %w", p.id, err)
		}
		var since time.Time
		if len(batch) > transport.DefaultRecvBatch {
			since = p.now()
		}
		for from, lo := 0, 0; lo < len(batch); {
			for hi := min(lo+transport.DefaultRecvBatch, len(batch)); lo < hi; lo++ {
				batch[lo] = p.operator.Process(batch[lo])
			}
			if lo < len(batch) {
				now := p.now()
				if now.Sub(since) < forwardHold {
					continue
				}
				since = now
			}
			seg, n := batch[from:lo], 0
			if p.combiner != nil {
				// Combine copies what it needs and retains nothing.
				seg, n = combineBatch(p.combiner, &p.carriers, seg)
				p.hits.Add(uint64(n))
				ref.ReleaseN(n)
			}
			err := tx.SendBatch(seg)
			ref.ReleaseN(len(seg))
			if err != nil {
				ref.ReleaseN(len(batch) - lo)
				return fmt.Errorf("runtime: worker %d forward: %w", p.id, err)
			}
			acked += uint64(lo - from)
			if err := rx.Ack(acked); err != nil {
				ref.ReleaseN(len(batch) - lo)
				return fmt.Errorf("runtime: worker %d ack: %w", p.id, err)
			}
			from = lo
		}
	}
}

// inprocWorker is one parallel PE on the in-process transport: the shared
// loop between a splitter edge and the merger's forward edge (ingestEdge),
// with no sockets, handshakes or serialization. A payload's bytes cross
// splitter → worker → merger without moving; they are GC-owned, so no hop
// releases anything. What the worker copies is the 72-byte Tuple value,
// twice — out of its input ring into the pass, and into its stream's merger
// ingest ring; the operator rewrites it in place.
type inprocWorker struct{ pe }

// newInprocWorker wires one worker between its two edges. The stall bound
// mirrors the TCP worker's forwarding stall: back pressure from the merger is
// routine, the bound only converts "merger never drains again" into an error.
func newInprocWorker(id int, op Operator, rx *transport.InprocReceiver, tx *ingestEdge, to Timeouts) *inprocWorker {
	tx.stall = to.SendStall
	// Acking 0 before the splitter is built tells it this edge acks
	// (transport.Acks.Acking), so it bounds the edge from the first tuple.
	rx.Ack(0)
	// The edge pair is registered from the start, so Close severs it even on
	// a worker that was never started.
	return &inprocWorker{pe{id: id, operator: op, rx: rx, tx: tx, done: make(chan struct{})}}
}

// Start launches the worker loop; it runs until the splitter edge closes (the
// fixed-pipeline completion), Close is called, or an error occurs.
func (w *inprocWorker) Start() {
	go func() {
		defer close(w.done)
		w.err = w.serve(w.rx, w.tx)
	}()
}

// Close interrupts the worker: both edges close, so a loop parked on an
// empty input ring or in the merger's ingest wakes and exits cleanly.
func (w *inprocWorker) Close() { w.interrupt() }

// Worker is one parallel PE: it accepts a connection from the splitter,
// applies its operator to every tuple, and forwards results to the merger
// over its own TCP connection.
//
// By default a worker serves exactly one splitter connection and exits when
// it ends — the paper's fixed-pipeline model. In resilient mode (used by
// recovery-enabled regions) the worker instead keeps accepting: when a
// splitter connection dies it tears down its merger connection, returns to
// Accept, and re-handshakes with the merger on the next connection, so a
// redialing splitter can re-admit it without a process restart.
type Worker struct {
	pe
	ln        net.Listener
	merger    string // merger address to dial
	resilient bool
	to        Timeouts
}

// NewWorker starts listening for the splitter on a fresh loopback port.
// mergerAddr is where processed tuples are sent.
func NewWorker(id int, operator Operator, mergerAddr string) (*Worker, error) {
	if operator == nil {
		return nil, errors.New("runtime: worker needs an operator")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("runtime: worker %d listen: %w", id, err)
	}
	return &Worker{
		pe:     pe{id: id, operator: operator, done: make(chan struct{})},
		ln:     ln,
		merger: mergerAddr,
		to:     Timeouts{}.norm(),
	}, nil
}

// SetTimeouts overrides the worker's I/O deadlines (merger dial, handshake
// writes, forwarding stall bound). Call before Start.
func (w *Worker) SetTimeouts(t Timeouts) {
	w.to = t.norm()
}

// SetResilient switches the worker to the multi-connection mode described
// above. Call before Start.
func (w *Worker) SetResilient(on bool) {
	w.resilient = on
}

// Addr returns the address the splitter should dial.
func (w *Worker) Addr() string {
	return w.ln.Addr().String()
}

// Start launches the worker loop. In one-shot mode it runs until the
// splitter closes its connection or an error occurs; in resilient mode it
// runs until Close. Wait for completion with Wait.
func (w *Worker) Start() {
	go func() {
		defer close(w.done)
		w.err = w.run()
	}()
}

func (w *Worker) run() error {
	for {
		in, err := w.ln.Accept()
		if err != nil {
			if w.isClosed() {
				return nil
			}
			return fmt.Errorf("runtime: worker %d accept: %w", w.id, err)
		}
		if !w.resilient {
			// Once the splitter is connected no further connections are
			// expected.
			w.ln.Close()
		}
		err = w.serveConn(in)
		if w.isClosed() {
			return nil
		}
		if !w.resilient {
			return err
		}
		// A resilient worker absorbs the connection's failure: the splitter
		// replays its tuples and redials, and Accept takes the new connection.
	}
}

// serveConn processes one splitter connection until EOF or error, forwarding
// results to the merger over a fresh identified connection: dial and
// handshake here, then the shared loop over the two sockets' edges.
func (w *Worker) serveConn(in net.Conn) error {
	defer in.Close()
	if tc, ok := in.(*net.TCPConn); ok {
		if err := tc.SetReadBuffer(DefaultSocketBuffer); err != nil {
			return fmt.Errorf("runtime: worker %d set read buffer: %w", w.id, err)
		}
	}

	out, err := net.DialTimeout("tcp", w.merger, w.to.dialTimeout())
	if err != nil {
		return fmt.Errorf("runtime: worker %d dial merger: %w", w.id, err)
	}
	defer out.Close()
	// Identify this connection to the merger, under the IO deadline.
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], uint32(w.id))
	if w.to.IO > 0 {
		out.SetWriteDeadline(time.Now().Add(w.to.IO))
	}
	if _, err := out.Write(id[:]); err != nil {
		return fmt.Errorf("runtime: worker %d send id: %w", w.id, err)
	}
	out.SetWriteDeadline(time.Time{})

	sender, err := transport.NewSender(out)
	if err != nil {
		return fmt.Errorf("runtime: worker %d sender: %w", w.id, err)
	}
	// Backpressure from the merger is routine and may park forwards for a
	// while; the stall bound only converts "merger never drains again" from
	// a permanent wedge into a connection error recovery absorbs.
	sender.SetStallTimeout(w.to.SendStall)
	// Ack 0 goes out as soon as the first receive finds the splitter's
	// hello, so the splitter bounds this connection from then on. That
	// answer is the splitter's admission health probe: it comes only after
	// the merger connection above is up and identified, so it proves the
	// whole forwarding path.
	rx := transport.NewReceiver(in)
	rx.Ack(0)
	return w.serve(rx, sender)
}

// Close shuts the worker down: the listener closes (pending Accepts fail)
// and any in-flight connection is severed so a resilient worker exits
// promptly.
func (w *Worker) Close() {
	w.interrupt()
	w.ln.Close()
}
