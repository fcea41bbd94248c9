package runtime

// The merger's control plane: accepting and routing connections, the
// splitter's control channel and the errors that end a merge.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

// acceptLoop admits worker and control connections until the listener
// closes. The handshake runs in a per-connection goroutine so one stalled
// peer cannot block the others from attaching.
func (m *Merger) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go m.handshake(conn)
	}
}

// handshake reads the 4-byte connection id and routes the connection: a
// worker id attaches its stream (attach), the control sentinel attaches the
// watermark writer and FIN reader. Every failure path closes the accepted
// connection.
//
// The id read is deadline-bounded and the connection is tracked in the
// pending set until identified: a peer that connects and goes silent is
// shed after the handshake timeout (or at teardown) instead of pinning this
// goroutine — and with it the merger's WaitGroup — forever.
func (m *Merger) handshake(conn net.Conn) {
	defer m.wg.Done()
	m.ctl.Lock()
	if m.closed.Load() {
		m.ctl.Unlock()
		conn.Close()
		return
	}
	m.pending[conn] = struct{}{}
	m.ctl.Unlock()
	unpend := func() {
		m.ctl.Lock()
		delete(m.pending, conn)
		m.ctl.Unlock()
	}
	if m.to.IO > 0 {
		conn.SetReadDeadline(time.Now().Add(m.to.IO))
	}
	var idBuf [4]byte
	if _, err := io.ReadFull(conn, idBuf[:]); err != nil {
		unpend()
		conn.Close()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			// A silent dialer shed by the deadline is defense, not a
			// stream failure: record it on the trace only.
			if m.rm != nil {
				m.rm.traceEvent(metrics.Event{Kind: "handshake-timeout", Conn: -1, Detail: conn.RemoteAddr().String()})
			}
			return
		}
		if !m.closed.Load() {
			m.recordStreamErr(fmt.Errorf("runtime: merger read worker id: %w", err))
		}
		return
	}
	conn.SetReadDeadline(time.Time{})
	unpend()
	raw := binary.LittleEndian.Uint32(idBuf[:])
	if raw == controlConnID {
		m.attachControl(conn)
		return
	}
	id := int(raw)
	if id < 0 || id >= m.workers {
		conn.Close()
		m.setFatal(fmt.Errorf("runtime: merger got bad worker id %d", id))
		return
	}
	// A rejected attach (merger closed, or a duplicate of a live stream)
	// has already closed the connection, and is the correct handling rather
	// than a stream failure: a restarting worker can race its predecessor's
	// teardown and will retry after backoff.
	_ = m.attach(id, transport.NewReceiver(conn))
}

// setFatal records a protocol violation and aborts the merge.
func (m *Merger) setFatal(err error) {
	m.ctl.Lock()
	if m.fatal == nil {
		m.fatal = err
	}
	m.epoch.Add(1)
	m.ctl.Unlock()
	m.wakeAll()
}

func (m *Merger) recordStreamErr(err error) {
	m.ctl.Lock()
	m.strmErrs = append(m.strmErrs, err)
	m.epoch.Add(1)
	m.ctl.Unlock()
	m.wakeAll()
}

// attachControl wires a splitter control connection: one goroutine streams
// watermarks out, this goroutine reads the FIN total and then watches for
// the peer closing.
func (m *Merger) attachControl(conn net.Conn) {
	m.ctl.Lock()
	if m.closed.Load() {
		m.ctl.Unlock()
		conn.Close()
		return
	}
	m.ctrlSeen = true
	m.ctrlLive++
	m.epoch.Add(1)
	m.ctl.Unlock()
	m.wakeAll()

	m.wg.Add(1)
	go m.watermarkWriter(conn)

	var buf [8]byte
	if _, err := io.ReadFull(conn, buf[:]); err == nil {
		m.ctl.Lock()
		m.finKnown = true
		m.finTotal = binary.LittleEndian.Uint64(buf[:])
		m.epoch.Add(1)
		m.ctl.Unlock()
		m.wakeAll()
		// The splitter holds the channel open until it drains; wait for
		// the close so ctrlLive reflects liveness, not FIN receipt.
		io.Copy(io.Discard, conn)
	}
	m.ctl.Lock()
	m.ctrlLive--
	m.epoch.Add(1)
	m.ctl.Unlock()
	m.wakeAll()
}

// watermarkWriter periodically reports the released watermark, flushing a
// final one when the merge completes so the splitter's drain observes every
// release. It owns
// closing the control connection. Every write carries a deadline: a control
// peer that stops reading sheds this goroutine instead of pinning it.
func (m *Merger) watermarkWriter(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	ticker := time.NewTicker(m.wmInterval)
	defer ticker.Stop()
	var buf [8]byte
	write := func() error {
		// next is atomic, so the periodic report reads the merge loop's
		// progress without touching it.
		binary.LittleEndian.PutUint64(buf[:], m.next.Load())
		if m.to.IO > 0 {
			conn.SetWriteDeadline(time.Now().Add(m.to.IO))
		}
		_, err := conn.Write(buf[:])
		return err
	}
	for {
		select {
		case <-m.wmStop:
			write()
			return
		case <-ticker.C:
			if write() != nil {
				return
			}
		}
	}
}
