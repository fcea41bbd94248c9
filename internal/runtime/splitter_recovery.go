package runtime

// The splitter's recovery plane: failure notices, the merge-stall check, the
// replay buffer, retire and replay, redial and rejoin, and the drain.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

// retainEntry is one sent-but-unreleased tuple in the replay buffer. conn
// is the stable id of the connection carrying it. key is retained so replays
// carry it (flagged Solo, so a replayed tuple never combines with a fresh
// one).
type retainEntry struct {
	seq     uint64
	key     uint64
	conn    int
	payload []byte
}

// rejoin carries a successfully redialed connection into the send loop.
type rejoin struct {
	id     int
	addr   string
	conn   net.Conn
	sender transport.BatchSender
	acks   *transport.Acks
}

// probeReady waits for the worker's ready ACK byte: the worker writes it once
// its merger connection is up and identified, so reading it proves the whole
// forwarding path. Bounded by the IO timeout.
func (sp *Splitter) probeReady(conn net.Conn) error {
	if sp.to.IO > 0 {
		conn.SetReadDeadline(time.Now().Add(sp.to.IO))
		defer conn.SetReadDeadline(time.Time{})
	}
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return fmt.Errorf("ready ack: %w", err)
	}
	if b[0] != workerReadyAck {
		return fmt.Errorf("ready ack: unexpected byte %#x", b[0])
	}
	return nil
}

func (sp *Splitter) event(ev ConnEvent) {
	if sp.mtr != nil {
		sp.mtr.connEvent(ev)
	}
	if sp.cfg.OnConnEvent != nil {
		sp.cfg.OnConnEvent(ev)
	}
}

// errControlLost is handleEvent's report that the merger side of the control
// channel went away; each caller words its own consequence.
var errControlLost = errors.New("runtime: control channel lost")

// handleEvent is the send loop's one event switch: it takes one notice
// (nextNotice) and reacts to it (handleNotice). With wait set it parks until a
// notice arrives and also wakes on a watermark advance (pruning the replay
// buffer) and on the loss of the control channel (errControlLost).
func (sp *Splitter) handleEvent(wait bool, fail func(id int, quarantined bool) error) error {
	return sp.handleNotice(sp.nextNotice(wait, nil), fail)
}

// notice is one thing the parked send loop woke for (nextNotice): its kind,
// and conn for noticeDead, at for the two timers, rj for noticeRejoin.
type notice struct {
	kind noticeKind
	conn *splitConn
	at   time.Time
	rj   rejoin
}

type noticeKind int

const (
	noticeAdvanced    noticeKind = iota // the watermark advanced
	noticeLost                          // the control channel went away
	noticeDead                          // a connection's reader saw its stream end
	noticeStall                         // the merge-stall check is due
	noticeRejoin                        // a worker redialed
	noticeAck                           // the credit wait's worker acked
	noticeAcksEnd                       // the credit wait's acks ended
	noticeCreditTimer                   // the credit wait's timer fired
)

// nextNotice parks the send loop until one notice arrives. The recovery
// notices (a reader's peer close, a stall tick, a rejoin) always count; wait
// adds the control channel's; credit, the connection awaitCredit parks on,
// adds its acks, their end and the wait's stall timer. Outside recovery only
// the credit cases can fire.
func (sp *Splitter) nextNotice(wait bool, credit *splitConn) notice {
	var advanced, lost, bell, gone <-chan struct{}
	var expired <-chan time.Time
	if wait {
		advanced, lost = sp.ctrl.wmSignal, sp.ctrl.dead
	}
	if credit != nil {
		bell, gone = credit.acks.Bell(), credit.acks.Done()
		if !sp.creditLimit.IsZero() {
			expired = sp.creditTimer.C
		}
	}
	select {
	case <-bell:
		return notice{kind: noticeAck}
	case <-gone:
		return notice{kind: noticeAcksEnd}
	case now := <-expired:
		return notice{kind: noticeCreditTimer, at: now}
	case <-advanced:
		return notice{kind: noticeAdvanced}
	case <-lost:
		return notice{kind: noticeLost}
	case c := <-sp.deadCh:
		return notice{kind: noticeDead, conn: c}
	case now := <-sp.stallTick:
		return notice{kind: noticeStall, at: now}
	case rj := <-sp.rejoinCh:
		return notice{kind: noticeRejoin, rj: rj}
	}
}

// handleNotice reacts to one recovery notice. A peer close seen by a
// connection's reader goes to fail, which retires the connection and replays
// (drain passes its own, so the notice is weighed against the watermark
// first); a stall tick runs the merge-stall check, whose quarantine goes to
// fail too; a rejoin re-admits the redialed worker.
func (sp *Splitter) handleNotice(n notice, fail func(id int, quarantined bool) error) error {
	switch n.kind {
	case noticeAdvanced:
		sp.pruneRetained()
	case noticeLost:
		return errControlLost
	case noticeDead:
		// A notice names the connection, not just the worker id: the reader
		// of a connection already retired on a send error may report only
		// after its worker has rejoined, and must not retire the newcomer.
		if sp.findLive(n.conn.id) != n.conn {
			return nil
		}
		return fail(n.conn.id, false)
	case noticeStall:
		return sp.checkStall(n.at, fail)
	case noticeRejoin:
		sp.admitRejoin(n.rj)
	}
	return nil
}

// pollEvents handles the pending notices without blocking: the send loop is
// their only receiver, so a channel seen non-empty here still is when
// handleEvent selects on it.
func (sp *Splitter) pollEvents() error {
	for len(sp.deadCh)+len(sp.stallTick)+len(sp.rejoinCh) > 0 {
		if err := sp.handleEvent(false, sp.connFailed); err != nil {
			return err
		}
	}
	return nil
}

// connFailed acts on a death or quarantine notice for stable worker id. A
// quarantine rides the same membership edit as a death: retire, replay to
// survivors, redial.
func (sp *Splitter) connFailed(id int, quarantined bool) error {
	c := sp.findLive(id)
	if c == nil {
		return nil // already retired
	}
	cause := fmt.Errorf("runtime: worker %d connection closed by peer", id)
	if quarantined {
		sp.quarCount[id]++
		sp.event(ConnEvent{Kind: "quarantine", Conn: id})
		cause = fmt.Errorf("runtime: worker %d quarantined: the merge stalled behind it", id)
	}
	return sp.handleConnFailure(c, cause)
}

// checkStall is the merge-stall check, run on each stall tick. The splitter
// is the only straggler detector: the merger just reports its watermark, and
// the replay buffer knows who carries the head-of-line sequence. When the
// watermark has not moved for StallWindow while a sent tuple is unreleased,
// the head's owner is quarantined through fail, unless it is the last live
// connection. The stall clock restarts at every watermark advance, whenever
// nothing is unreleased (an idle source stalls the watermark too), after
// every replay or rejoin, and after a quarantine or a spared last
// connection, so one owner is ejected at most once per window and a survivor
// always gets a full window after a replay.
func (sp *Splitter) checkStall(now time.Time, fail func(id int, quarantined bool) error) error {
	// A head-of-line tuple still held was never sent, so the stall is the
	// splitter's, not its worker's: write it and give it a full window.
	c := sp.findLive(sp.headOwner())
	headHeld := c != nil && len(c.out) > 0 && c.out[0].Seq <= sp.ctrl.Watermark()
	if err := sp.writeOut(false); err != nil {
		return err
	}
	if sp.stallAdvanced(now) {
		return nil
	}
	owner := sp.headOwner()
	if owner < 0 || headHeld {
		sp.stallSince = now
		return nil
	}
	if now.Sub(sp.stallSince) < sp.cfg.Recovery.StallWindow {
		return nil
	}
	if len(sp.conns) <= 1 {
		// The last connection has no peers to be slow next to, and ejecting
		// it only fails the region (handleConnFailure returns allDeadErr at
		// once): wait, as a merge without recovery does.
		sp.stallSince = now
		return nil
	}
	if sp.stallFrom.IsZero() {
		sp.stallFrom = sp.stallSince
	}
	err := fail(owner, true)
	sp.stallSince = now
	return err
}

// stallAdvanced reports whether the watermark moved since the last look. If
// it did, the stall clock restarts and an open stall episode ends, observed
// on the stall histogram.
func (sp *Splitter) stallAdvanced(now time.Time) bool {
	wm := sp.ctrl.Watermark()
	if wm == sp.stallWM {
		return false
	}
	sp.stallWM, sp.stallSince = wm, now
	if !sp.stallFrom.IsZero() {
		if sp.mtr != nil {
			sp.mtr.stallSeconds.Observe(now.Sub(sp.stallFrom).Seconds())
		}
		sp.stallFrom = time.Time{}
	}
	return true
}

// headOwner reports which stable worker id carries the lowest unreleased
// sequence number, or -1 when nothing is unreleased.
func (sp *Splitter) headOwner() int {
	wm := sp.ctrl.Watermark()
	for i := sp.retHead; i < len(sp.retained); i++ {
		if sp.retained[i].seq >= wm {
			return sp.retained[i].conn
		}
	}
	return -1
}

// awaitRetention makes room for one tuple in the replay buffer, blocking
// while it is full until the merger's watermark frees space.
func (sp *Splitter) awaitRetention() error {
	sp.pruneRetained()
	for len(sp.retained)-sp.retHead >= sp.cfg.Recovery.RetainCap {
		// The watermark may be waiting for pending output.
		if err := sp.writeOut(false); err != nil {
			return err
		}
		if err := sp.handleEvent(true, sp.connFailed); err == errControlLost {
			return errors.New("runtime: control channel lost with replay buffer full")
		} else if err != nil {
			return err
		}
	}
	return nil
}

// pruneRetained drops retained tuples the merger has released.
func (sp *Splitter) pruneRetained() {
	wm := sp.ctrl.Watermark()
	for sp.retHead < len(sp.retained) && sp.retained[sp.retHead].seq < wm {
		sp.retained[sp.retHead].payload = nil
		sp.retHead++
	}
	if sp.retHead > 0 && sp.retHead*2 >= len(sp.retained) {
		n := copy(sp.retained, sp.retained[sp.retHead:])
		for i := n; i < len(sp.retained); i++ {
			sp.retained[i] = retainEntry{}
		}
		sp.retained = sp.retained[:n]
		sp.retHead = 0
	}
}

// publishReplayDepth sets the replay-buffer gauge. The send loop calls it once
// per round and per drain wake-up, never per tuple.
func (sp *Splitter) publishReplayDepth() {
	if sp.mtr != nil {
		sp.mtr.replayDepth.Set(float64(len(sp.retained) - sp.retHead))
	}
}

// removeConn retires a failed connection: folds its counters, drops it from
// the live set and the schedule, and rebalances the freed weight across
// survivors. Reports whether the connection was still live. Fold and removal
// are one critical section, so connTotals counts the connection exactly once.
func (sp *Splitter) removeConn(c *splitConn, cause error) bool {
	pos := -1
	for i, lc := range sp.conns {
		if lc == c {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	sp.mu.Lock()
	sp.aggSent[c.id] += c.sender.Sent()
	sp.aggBlocking[c.id] += c.blocking()
	sp.aggBlocked[c.id] += c.blockEvents()
	sp.conns = append(sp.conns[:pos], sp.conns[pos+1:]...)
	sp.mu.Unlock()
	c.out, c.outBytes, c.congested, c.retired = nil, 0, false, true
	var weights []int
	if sp.cfg.Balancer != nil && sp.cfg.Balancer.Connections() > 1 {
		// The balancer folds the dead connection's weight back into the
		// survivors immediately, so the splitter never routes to it.
		sp.cfg.Balancer.RemoveConnection(pos)
		weights = sp.cfg.Balancer.Weights()
	}
	sp.wrr.Remove(pos)
	sp.samplers.Remove(pos)
	if sp.router != nil {
		sp.router.Remove(pos)
	}
	if weights != nil {
		sp.wrr.SetWeights(weights)
	}
	sp.setBounds(sp.wrr.Weights())
	sp.downErrs = append(sp.downErrs, fmt.Errorf("worker %d: %w", c.id, cause))
	if sp.mtr != nil {
		sp.mtr.connLifetime.Observe(time.Since(c.dialedAt).Seconds())
	}
	c.sender.Close()
	sp.event(ConnEvent{Kind: "down", Conn: c.id, Err: cause})
	if rc := sp.cfg.Recovery; rc.Redial != nil {
		// Circuit breaker: a worker that keeps getting quarantined is not
		// worth re-admitting — each readmission costs a replay storm.
		if rc.MaxReadmits >= 0 && sp.quarCount[c.id] > rc.MaxReadmits {
			sp.event(ConnEvent{Kind: "evicted", Conn: c.id})
		} else {
			go sp.redialLoop(c.id, c.addr)
		}
	}
	return true
}

func (sp *Splitter) allDeadErr() error {
	return fmt.Errorf("runtime: all worker connections failed: %w", errors.Join(sp.downErrs...))
}

// handleConnFailure retires the failed connection and replays every
// unreleased tuple it carried across the survivors. If a survivor fails
// during replay it is retired too and its tuples join the worklist.
func (sp *Splitter) handleConnFailure(c *splitConn, cause error) error {
	var deadIDs []int
	if sp.removeConn(c, cause) {
		deadIDs = append(deadIDs, c.id)
	}
	for len(deadIDs) > 0 {
		if len(sp.conns) == 0 {
			return sp.allDeadErr()
		}
		// No pruning here: compaction would invalidate the entry pointers
		// collectRetained returns. Replaying an already-released tuple is
		// harmless — the merger dedupes it.
		id := deadIDs[0]
		deadIDs = deadIDs[1:]
		entries := sp.collectRetained(id)
		for _, e := range entries {
			for {
				c2 := sp.pickFor(0)
				if c2 == nil {
					return sp.allDeadErr()
				}
				// Replays are Solo: a re-sent tuple must never be absorbed
				// into a combine group, or a crash between the original group
				// and the replay could double-count it.
				if err := c2.sender.Send(transport.Tuple{Seq: e.seq, Key: e.key, Solo: e.key != 0, Payload: e.payload}); err != nil {
					if sp.removeConn(c2, err) {
						deadIDs = append(deadIDs, c2.id)
					}
					continue
				}
				e.conn = c2.id
				break
			}
		}
		sp.event(ConnEvent{Kind: "replay", Conn: id, Tuples: len(entries)})
	}
	sp.stallSince = time.Now()
	return nil
}

// collectRetained returns the retained entries currently assigned to the
// given stable worker id.
func (sp *Splitter) collectRetained(id int) []*retainEntry {
	var out []*retainEntry
	for i := sp.retHead; i < len(sp.retained); i++ {
		if sp.retained[i].conn == id {
			out = append(out, &sp.retained[i])
		}
	}
	return out
}

// redialLoop re-establishes a failed worker connection with backoff and
// hands it to the send loop. One attempt is a dial plus the readmission
// health probe: an accepted TCP connection only proves the listener is alive,
// so the worker's ready ACK (its merger path re-established) is required too,
// and a worker that accepts but never acknowledges backs off like one that
// refuses. When the attempt budget runs out it emits "redial-exhausted" and
// gives up — the worker stays out of the schedule for good.
func (sp *Splitter) redialLoop(id int, addr string) {
	var acks *transport.Acks
	rd := transport.NewRedialer(func() (net.Conn, error) {
		if sp.mtr != nil {
			sp.cm[id].redials.Inc()
		}
		conn, err := sp.dialWorker(addr)
		if err != nil {
			return nil, err
		}
		if err := sp.probeReady(conn); err != nil {
			conn.Close()
			return nil, fmt.Errorf("health probe: %w", err)
		}
		if acks, err = sp.readAnswer(conn); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}, *sp.cfg.Recovery.Redial)
	conn, err := rd.Dial(sp.stop)
	if err != nil {
		select {
		case <-sp.stop: // shutting down, not exhausted
		default:
			sp.event(ConnEvent{Kind: "redial-exhausted", Conn: id, Err: err})
		}
		return
	}
	sender, err := transport.NewSender(conn)
	if err != nil {
		conn.Close()
		return
	}
	sender.SetStallTimeout(sp.to.SendStall)
	select {
	case sp.rejoinCh <- rejoin{id: id, addr: addr, conn: conn, sender: sender, acks: acks}:
	case <-sp.stop:
		sender.Close()
	}
}

// admitRejoin re-admits a redialed worker: it re-enters the schedule and
// the balancer with zero weight, so the next rebalance explores it and the
// learning loop re-measures its capacity.
func (sp *Splitter) admitRejoin(rj rejoin) {
	c := &splitConn{id: rj.id, addr: rj.addr, conn: rj.conn, sender: rj.sender, dialedAt: time.Now(), acks: rj.acks}
	sp.mu.Lock()
	sp.conns = append(sp.conns, c)
	sp.mu.Unlock()
	sp.samplers.Add()
	if sp.cfg.Balancer != nil {
		sp.cfg.Balancer.AddConnection()
		sp.wrr.Add(0)
		sp.wrr.SetWeights(sp.cfg.Balancer.Weights())
	} else {
		// Without a balancer, give the newcomer an even share at once.
		w := sp.wrr.Weights()
		share := core.DefaultUnits / (len(w) + 1)
		if share < 1 {
			share = 1
		}
		sp.wrr.Add(share)
	}
	if sp.router != nil {
		sp.router.Add()
	}
	sp.setBounds(sp.wrr.Weights())
	go sp.readAcks(c)
	sp.stallSince = time.Now()
	sp.event(ConnEvent{Kind: "rejoin", Conn: rj.id})
	if sp.quarCount[rj.id] > 0 && sp.mtr != nil {
		sp.mtr.traceEvent(metrics.Event{Kind: "readmit", Conn: rj.id})
	}
}

// drain holds the splitter open after the source is exhausted until the
// merger confirms (via the watermark) that every tuple was released —
// replaying on any late connection failure — so a worker dying with tuples
// in flight cannot lose data.
func (sp *Splitter) drain(total uint64) error {
	if err := sp.ctrl.SendFin(total); err != nil {
		if sp.ctrl.Watermark() >= total {
			return nil
		}
		return err
	}
	fail := func(id int, quarantined bool) error { return sp.drainFailure(total, id, quarantined) }
	for {
		sp.pruneRetained()
		sp.publishReplayDepth()
		if sp.ctrl.Watermark() >= total {
			return nil
		}
		err := sp.handleEvent(true, fail)
		if err == errControlLost {
			if sp.ctrl.Watermark() >= total {
				return nil
			}
			return fmt.Errorf("runtime: merger lost before releasing all tuples (watermark %d of %d)",
				sp.ctrl.Watermark(), total)
		} else if err != nil {
			return err
		}
	}
}

// drainFailure acts on a death or quarantine notice taken while draining,
// unless the merger has released everything in the meantime: select may take
// the notice while wmSignal is ready too, and a connection may well drop or
// go silent because the merger, done, is tearing the pipeline down. Replaying
// then would send into closed worker connections, retire each live one on
// its EPIPE and report all workers failed for a stream that completed. The
// watermark is read again before an error is believed, for the same reason.
func (sp *Splitter) drainFailure(total uint64, id int, quarantined bool) error {
	if sp.ctrl.Watermark() >= total {
		return nil
	}
	err := sp.connFailed(id, quarantined)
	if err != nil && sp.ctrl.Watermark() >= total {
		return nil
	}
	return err
}
