package transport

import (
	"sync/atomic"
	"time"
)

// edgeCounters is the accounting every sender embeds, whatever its transport:
// the Section 3 blocking counters (one sampled and reset by the controller,
// one lifetime), the elect-to-block event count, and the delivered tuple and
// flush counts. The sending goroutine writes them; any goroutine may read
// them (the controller samples them, a metrics scrape reads them).
type edgeCounters struct {
	cumBlockingNS   atomic.Int64
	totalBlockingNS atomic.Int64
	blockEvents     atomic.Int64
	sent            atomic.Int64
	flushes         atomic.Int64
}

// addBlocked accounts one blocked span to both blocking counters, exactly as
// the paper's transport adds the select(2) wait to the per-connection counter.
func (c *edgeCounters) addBlocked(d time.Duration) {
	if d > 0 {
		c.cumBlockingNS.Add(int64(d))
		c.totalBlockingNS.Add(int64(d))
	}
}

// CumulativeBlocking returns the sampled blocking-time counter. The
// controller differences successive readings to obtain the blocking rate.
func (c *edgeCounters) CumulativeBlocking() time.Duration {
	return time.Duration(c.cumBlockingNS.Load())
}

// ResetCumulative zeroes the sampled counter, emulating the transport
// layer's periodic reset (Figure 2). The lifetime counter is unaffected.
func (c *edgeCounters) ResetCumulative() { c.cumBlockingNS.Store(0) }

// TotalBlocking returns the lifetime blocking time on this edge.
func (c *edgeCounters) TotalBlocking() time.Duration {
	return time.Duration(c.totalBlockingNS.Load())
}

// BlockEvents returns how many sends found the buffer full and blocked.
func (c *edgeCounters) BlockEvents() int64 { return c.blockEvents.Load() }

// Sent returns how many tuples have been delivered. Every send is a flush, so
// Sent/Flushes is the mean batch size.
func (c *edgeCounters) Sent() int64 { return c.sent.Load() }

// Flushes returns how many batch flushes have completed.
func (c *edgeCounters) Flushes() int64 { return c.flushes.Load() }
