package transport

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// rawConner is satisfied by net.TCPConn, net.UnixConn and any other net.Conn
// exposing its file descriptor.
type rawConner interface {
	SyscallConn() (syscall.RawConn, error)
}

// iovMax bounds the iovec count per writev(2) call (IOV_MAX is 1024 on
// Linux); larger batches are written in successive calls.
const iovMax = 1024

var errWroteZero = errors.New("write returned 0 without error")

// Sender frames and sends tuples on one connection, accumulating the
// cumulative blocking time of Section 3: each send is attempted without
// blocking, and when the kernel reports the socket buffer full the sender
// elects to block in the runtime poller anyway, timing the wait.
//
// There is one write path: SendBatch stages frames (queue) and writes them
// (flush) (batch.go); Send goes through it. They may be called from only
// one goroutine at a time (the splitter has a single thread of control); the
// counters may be read concurrently.
//
// The send path's overhead both caps region throughput and perturbs the
// blocking-time signal the balancer reads, so it must not allocate in steady
// state: the poller callback is bound once at construction (a per-call
// closure escapes), frames are encoded into one buffer the Sender keeps,
// and the write-in-progress cursor lives on the Sender.
type Sender struct {
	conn net.Conn
	raw  syscall.RawConn

	// The write queue, owned by the sending goroutine. queue stages buffers
	// onto it (batch.go) and flush writes wq[wqHead:], the buffers not yet
	// fully written; the callback advances the cursor across poller parks
	// so a partial write — at any byte boundary, mid-header or
	// mid-payload, within or across batch buffers — always resumes exactly
	// where the kernel stopped.
	wq        [][]byte
	wqHead    int
	iov       []syscall.Iovec // scratch, reused across writev calls
	writeFn   func(fd uintptr) bool
	wErr      error
	blocked   bool
	blockedAt time.Time

	// Staging state (queue/flush), see batch.go: the frame buffer frames
	// are encoded into, how much of it is already on wq, and how many
	// tuples are staged.
	buf    []byte
	cutAt  int
	queued int

	// Stall bound: when stallTimeout > 0, a write deadline is kept armed on
	// the connection so an elect-to-block park on a socket that never
	// drains returns an i/o timeout instead of parking forever. The
	// deadline is re-armed lazily (at most once per half-window) so the
	// steady-state flush path pays no extra syscall; the effective bound on
	// one stalled flush is therefore within [stallTimeout/2, stallTimeout].
	stallTimeout time.Duration
	stallArmedAt time.Time

	edgeCounters

	// now is replaceable for tests.
	now func() time.Time
}

// NewSender wraps a connection. The connection must expose its descriptor
// via SyscallConn (net.TCPConn and net.UnixConn do).
func NewSender(conn net.Conn) (*Sender, error) {
	rc, ok := conn.(rawConner)
	if !ok {
		return nil, fmt.Errorf("transport: %T does not expose a raw descriptor", conn)
	}
	raw, err := rc.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("transport: raw conn: %w", err)
	}
	s := &Sender{conn: conn, raw: raw, buf: make([]byte, 0, frameBufCap), now: time.Now}
	s.writeFn = s.rawWrite
	return s, nil
}

// Send is a batch of one: the tuple is staged and flushed through the same
// path as any batch, so it is its own flush and its own elect-to-block
// episode (the Section 3 per-tuple sample).
func (s *Sender) Send(t Tuple) error {
	ts := [1]Tuple{t}
	return s.SendBatch(ts[:])
}

// account closes out an in-progress blocking episode: the time since the
// park started is added to the cumulative counter, exactly as the paper's
// transport adds the select(2) wait to the per-connection counter.
func (s *Sender) account() {
	if !s.blocked {
		return
	}
	s.addBlocked(s.now().Sub(s.blockedAt))
	s.blocked = false
}

// rawWrite is the parking poller callback behind flush. It
// writes wq[wqHead:] with write(2) for the final buffer and writev(2) when
// several remain, parking on EAGAIN (electing to block) and accounting the
// parked time on re-entry. Partial writes advance the cursor by exact byte
// count, so accounting stays attached to this connection no matter where
// the kernel splits the write.
func (s *Sender) rawWrite(fd uintptr) bool {
	// Re-entry after a park: the socket became writable; record how long
	// the "select" lasted.
	s.account()
	for s.wqHead < len(s.wq) {
		var n int
		var errno error
		if s.wqHead == len(s.wq)-1 {
			n, errno = syscall.Write(int(fd), s.wq[s.wqHead])
		} else {
			n, errno = s.writev(fd)
		}
		if n > 0 {
			s.consume(n)
			continue
		}
		switch {
		case errors.Is(errno, syscall.EAGAIN):
			// The send would have blocked (MSG_DONTWAIT semantics).
			// Record the event and elect to block: returning false
			// parks this goroutine until the descriptor is writable.
			s.blocked = true
			s.blockedAt = s.now()
			s.blockEvents.Add(1)
			return false
		case errors.Is(errno, syscall.EINTR):
			continue
		case errno != nil:
			s.wErr = errno
			return true
		default:
			s.wErr = errWroteZero
			return true
		}
	}
	return true
}

// writev issues one vectored write over the unwritten buffers (at most
// iovMax of them; the loop in rawWrite picks up the rest).
func (s *Sender) writev(fd uintptr) (int, error) {
	iov := s.iov[:0]
	for _, b := range s.wq[s.wqHead:] {
		if len(b) == 0 {
			continue
		}
		if len(iov) == iovMax {
			break
		}
		iov = append(iov, syscall.Iovec{Base: &b[0]})
		iov[len(iov)-1].SetLen(len(b))
	}
	s.iov = iov[:0] // keep grown capacity for the next call
	if len(iov) == 0 {
		return 0, nil
	}
	n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd,
		uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	if errno != 0 {
		return int(n), errno
	}
	return int(n), nil
}

// consume advances the write cursor by n written bytes, across buffer
// boundaries. Fully written buffers are released immediately so a parked
// batch does not pin payload memory it no longer needs.
func (s *Sender) consume(n int) {
	for n > 0 && s.wqHead < len(s.wq) {
		b := s.wq[s.wqHead]
		if n < len(b) {
			s.wq[s.wqHead] = b[n:]
			return
		}
		n -= len(b)
		s.wq[s.wqHead] = nil
		s.wqHead++
	}
}

// SetStallTimeout bounds how long one flush may stay parked on a socket
// that is not draining (0 disables; negative is treated as 0). A firing
// deadline surfaces as an i/o timeout from the send, which recovery-mode
// callers route through the ordinary connection-failure/replay path. Call
// from the sending goroutine (or before it starts).
func (s *Sender) SetStallTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.stallTimeout = d
	s.stallArmedAt = time.Time{}
}

// armStallDeadline rolls the write deadline forward when more than half the
// stall window has elapsed since it was last armed. Never called from
// inside the poller callback: SetWriteDeadline on a conn whose RawConn
// callback is executing is not safe, so the deadline is only touched here,
// between raw.Write calls.
func (s *Sender) armStallDeadline() {
	if s.stallTimeout <= 0 {
		return
	}
	now := time.Now()
	if !s.stallArmedAt.IsZero() && now.Sub(s.stallArmedAt) <= s.stallTimeout/2 {
		return
	}
	s.conn.SetWriteDeadline(now.Add(s.stallTimeout))
	s.stallArmedAt = now
}

// flushWrite drives wq through the poller callback. If the poller wait ended
// in a connection error the callback never re-ran, so accounting is closed
// out here too: the wait is not lost.
func (s *Sender) flushWrite() error {
	s.wErr = nil
	s.blocked = false
	s.wqHead = 0
	s.armStallDeadline()
	err := s.raw.Write(s.writeFn)
	s.account()
	if err != nil {
		return err
	}
	return s.wErr
}

// Close closes the underlying connection.
func (s *Sender) Close() error {
	return s.conn.Close()
}
