package runtime

import "time"

// Default I/O deadlines and stall-detection windows. The values are
// deliberately generous — they exist to convert "hangs forever" into "fails
// in bounded time", not to police routine latency. Tests shrink them by
// orders of magnitude.
const (
	// DefaultIOTimeout bounds every connection establishment (splitter to
	// worker, splitter to control channel, worker to merger), the 4-byte id
	// exchange on a fresh merger connection in both directions (a peer that
	// connects and goes silent is shed after this long instead of pinning
	// an accept-path goroutine forever), the splitter's wait for a worker's
	// ready acknowledgement (the health re-probe gating re-admission), and
	// each control-channel write (the merger's watermark frames and the
	// splitter's FIN).
	DefaultIOTimeout = 5 * time.Second
	// DefaultControlReadTimeout bounds each watermark-frame read on the
	// splitter's control channel. The merger writes a frame every watermark
	// interval (20ms by default) even when the merge is stalled, so a
	// control channel idle this long is dead, not quiet.
	DefaultControlReadTimeout = 30 * time.Second
	// DefaultSendStallTimeout bounds how long one sender flush may sit
	// parked in the poller on a socket that is not draining. Electing to
	// block is the paper's signal, so this stays far above any plausible
	// backpressure episode; it exists to unwedge the send loop from a
	// worker that accepted tuples and then stopped reading entirely.
	DefaultSendStallTimeout = 30 * time.Second
	// DefaultStallWindow is how long the merge may make no progress (while
	// the splitter retains unreleased tuples) before the splitter
	// quarantines the connection carrying the head-of-line sequence.
	DefaultStallWindow = 10 * time.Second
	// DefaultMaxReadmits caps how many times one worker may be quarantined
	// and re-admitted before the circuit breaker retires it permanently.
	DefaultMaxReadmits = 3
)

// Timeouts carries every I/O deadline a region applies. The zero value
// selects the defaults above; a negative field disables that deadline
// (restoring the unbounded pre-straggler-defense behaviour).
type Timeouts struct {
	// IO bounds dials, the id handshakes, the splitter's wait for a worker's
	// ready ACK before (re-)admitting it into the schedule and for its
	// answer to the ack hello, and each control-channel write (watermark and
	// FIN frames).
	IO time.Duration
	// ControlRead bounds each watermark-frame read on the control channel.
	ControlRead time.Duration
	// SendStall bounds one elect-to-block park on a tuple send. Because the
	// deadline is re-armed at most once per half-window (to keep the
	// per-flush syscall cost off the hot path), the effective bound on a
	// single stalled flush lies in [SendStall/2, SendStall]. It also bounds
	// the splitter's waits on a worker's acks, a credit wait and the read of
	// its last credits at the end of a stream, each counted from the
	// worker's latest ack.
	SendStall time.Duration
}

// norm resolves the zero/negative encoding: zero fields take the default,
// negative fields become 0 ("disabled") so call sites can test `> 0`.
func (t Timeouts) norm() Timeouts {
	pick := func(v, def time.Duration) time.Duration {
		if v == 0 {
			return def
		}
		if v < 0 {
			return 0
		}
		return v
	}
	return Timeouts{
		IO:          pick(t.IO, DefaultIOTimeout),
		ControlRead: pick(t.ControlRead, DefaultControlReadTimeout),
		SendStall:   pick(t.SendStall, DefaultSendStallTimeout),
	}
}

// dialTimeout returns the dial bound, substituting a large finite cap when
// disabled so net.DialTimeout call sites need no branching (the OS SYN
// timeout fires far earlier anyway).
func (t Timeouts) dialTimeout() time.Duration {
	if t.IO > 0 {
		return t.IO
	}
	return 10 * time.Minute
}

// workerReadyAck is the single byte a worker writes back to the splitter
// once its merger connection is established and identified — the health
// probe recovery-mode splitters require before admitting the connection.
// Non-recovery splitters never read it; one unread byte parks harmlessly in
// the socket buffer.
const workerReadyAck = 0xA5
