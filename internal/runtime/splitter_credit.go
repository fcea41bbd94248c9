package runtime

// The splitter's credit plane: each connection's in-flight bound, the
// workers' acks it is measured against, and the credit wait that enforces it
// (DESIGN §4b).

import (
	"errors"
	"fmt"
	"math"
	"time"

	"streambalance/internal/transport"
)

// inflightDelay is how long each connection's in-flight tuples may take its
// worker at the region's rate: a connection with weight w_j of Σw holds at
// most max(2·BatchSize, ⌈w_j/Σw · R · inflightDelay⌉) tuples its worker has
// not acked, R being the region's smoothed forward rate (DESIGN §4b). Deep
// enough that every worker has work while the splitter waits on another, an
// order of magnitude under what the socket buffers alone held.
const inflightDelay = 10 * time.Millisecond

// readAcks is the one reader of a TCP connection's reverse direction, run
// from Start (or a rejoin) until the connection ends: it parses the worker's
// credit frames into c.acks, and in recovery mode the end of the stream is
// the connection's "down" notice, seen even while nothing is sent to it.
func (sp *Splitter) readAcks(c *splitConn) {
	// How the stream ended does not matter: a send on the connection, or
	// its replay, reports the cause.
	_ = transport.ReadAcks(c.conn, c.acks)
	if sp.recovery() {
		select {
		case sp.deadCh <- c:
		case <-sp.stop:
		}
	}
}

// pickRun makes a run's WRR pick and waits until that connection has room
// for the run (awaitCredit), picking again if the wait retired it. Nil when
// no connection is left.
func (sp *Splitter) pickRun() (*splitConn, error) {
	for {
		c := sp.pickFor(0)
		if c == nil {
			return nil, nil
		}
		if err := sp.awaitCredit(c); err != nil || !c.retired {
			return c, err
		}
	}
}

// inflight counts the tuples routed to c that its worker has not acked: the
// written ones and c's pending output. Replays count once written.
func (c *splitConn) inflight() int64 {
	return c.sender.Sent() + int64(len(c.out)) - int64(c.acks.Load())
}

// awaitCredit is a bounded connection's elect-to-block (DESIGN §4b): while
// c's in-flight tuples are at its bound, the send loop writes c's pending
// output, so a congested hold cannot keep back what the worker needs to ack,
// and parks until the worker acks more. Each park is timed into c's blocking,
// like a full socket's. The wait is bounded by SendStall from c's last ack,
// so only a worker that makes no progress fails (as its flush would have). In
// recovery mode the loop handles every notice while it waits, as
// awaitRetention does, so a replay or quarantine another connection needs is
// never held up behind this one; if c itself fails, the wait returns with c
// retired.
func (sp *Splitter) awaitCredit(c *splitConn) error {
	if c.acks == nil || !c.acks.Acking() || c.inflight() < c.bound.Load() {
		return nil
	}
	if err := sp.writeConn(c); err != nil || c.retired {
		return err
	}
	c.waits.Add(1)
	acked := c.acks.Load()
	if sp.to.SendStall > 0 {
		sp.creditLimit = time.Now().Add(sp.to.SendStall)
		sp.creditTimer.Reset(sp.to.SendStall)
		defer func() {
			sp.creditTimer.Stop()
			sp.creditLimit = time.Time{}
		}()
	}
	for !c.retired && c.inflight() >= c.bound.Load() {
		parked := time.Now()
		n := sp.nextNotice(sp.recovery(), c)
		woke := time.Now()
		c.waited.Add(int64(woke.Sub(parked)))
		var err error
		switch n.kind {
		case noticeAck:
			if a := c.acks.Load(); a != acked && !sp.creditLimit.IsZero() {
				acked, sp.creditLimit = a, woke.Add(sp.to.SendStall)
			}
		case noticeAcksEnd:
			err = sp.creditFailed(c, errors.New("connection closed by peer"))
		case noticeCreditTimer:
			if n.at.Before(sp.creditLimit) {
				// An ack moved the limit on, or the timer fired for an
				// earlier wait after that wait's Stop.
				sp.creditTimer.Reset(sp.creditLimit.Sub(n.at))
			} else {
				err = sp.creditFailed(c, fmt.Errorf("no credit for %v", sp.to.SendStall))
			}
		default:
			err = sp.handleNotice(n, sp.connFailed)
		}
		if err == errControlLost {
			return errors.New("runtime: control channel lost while waiting for credit")
		} else if err != nil {
			return err
		}
	}
	return nil
}

// creditFailed is the verdict on a connection whose credit wait ended in its
// acks' end or the stall bound: outside recovery the region fails, in
// recovery c is retired and its unreleased tuples replayed.
func (sp *Splitter) creditFailed(c *splitConn, cause error) error {
	if !sp.recovery() {
		return fmt.Errorf("runtime: wait for credit from worker %d: %w", c.id, cause)
	}
	return sp.handleConnFailure(c, fmt.Errorf("runtime: worker %d: %w", c.id, cause))
}

// blocking and blockEvents are c's share of the Section 3 signal: its
// sender's elect-to-block episodes and its credit waits.
func (c *splitConn) blocking() time.Duration {
	return c.sender.TotalBlocking() + time.Duration(c.waited.Load())
}

func (c *splitConn) blockEvents() int64 {
	return c.sender.BlockEvents() + c.waits.Load()
}

// measureRate folds the tuples the workers acked since the last tick into
// the region's forward rate, smoothed over the last intervals (each new one
// weighs half). It stays 0, and every bound at its floor, until an interval
// has seen an ack.
func (sp *Splitter) measureRate(acked uint64, now time.Duration) {
	interval := now - sp.rateAt
	sp.rateAt = now
	if interval <= 0 || acked == 0 && sp.rate == 0 {
		return
	}
	r := float64(acked) / interval.Seconds()
	if sp.rate == 0 {
		sp.rate = r
	} else {
		sp.rate = (sp.rate + r) / 2
	}
}

// setBounds gives each live connection its in-flight bound from its share of
// weights (live positions) and the region's forward rate; see inflightDelay.
// Before a tick has measured the rate every bound is the floor of two runs,
// so the first interval queues no more than any other.
func (sp *Splitter) setBounds(weights []int) {
	total := 0
	for _, w := range weights {
		total += w
	}
	floor := int64(2 * sp.cfg.BatchSize)
	for j, c := range sp.conns {
		b := floor
		if sp.rate > 0 && total > 0 && j < len(weights) {
			share := float64(weights[j]) / float64(total)
			b = max(floor, int64(math.Ceil(share*sp.rate*inflightDelay.Seconds())))
		}
		c.bound.Store(b)
	}
}

// connInflight returns stable worker id's live connection's written tuples
// its worker has not acked, and its bound (0 on an edge that reports no
// acks, which is never bounded). Any goroutine may call
// it (a metrics scrape does).
func (sp *Splitter) connInflight(id int) (inflight, bound int64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	c := sp.findLive(id)
	if c == nil || c.acks == nil {
		return 0, 0
	}
	// An ack can land before the flush it answers has counted its tuples.
	return max(0, c.sender.Sent()-int64(c.acks.Load())), c.bound.Load()
}
