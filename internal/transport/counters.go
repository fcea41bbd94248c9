package transport

import (
	"sync/atomic"
	"time"
)

// edgeCounters is the accounting every sender embeds, whatever its transport:
// the Section 3 cumulative blocking counter, the elect-to-block event count,
// and the delivered tuple and flush counts. The sending goroutine writes
// them; any goroutine may read them (the controller samples them, a metrics
// scrape reads them). Nothing resets them: the controller differences
// successive readings, so a reset would change no rate.
type edgeCounters struct {
	totalBlockingNS atomic.Int64
	blockEvents     atomic.Int64
	sent            atomic.Int64
	flushes         atomic.Int64
}

// addBlocked accounts one blocked span to the blocking counter, exactly as
// the paper's transport adds the select(2) wait to the per-connection counter.
func (c *edgeCounters) addBlocked(d time.Duration) {
	if d > 0 {
		c.totalBlockingNS.Add(int64(d))
	}
}

// TotalBlocking returns the lifetime blocking time on this edge. The
// controller differences successive readings to obtain the blocking rate.
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
