package runtime

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// The recovery control channel is a side TCP connection between splitter and
// merger. It shares the merger's listener: a peer that handshakes with
// controlConnID instead of a worker id is a control connection. Over it flow
// two kinds of 8-byte little-endian frames, one in each direction:
//
//	merger -> splitter: the released watermark — the count of tuples
//	  released contiguously (i.e. the lowest unreleased sequence number),
//	  sent periodically and once more when the merge completes. The
//	  splitter retains every sent tuple at or above the watermark and can
//	  therefore replay a dead connection's unreleased tuples to survivors.
//	  A watermark that stops moving while tuples are retained is also the
//	  splitter's merge-stall evidence: it alone decides to quarantine.
//	splitter -> merger: the FIN total — the number of tuples the source
//	  produced, sent exactly once when the source is exhausted. It tells
//	  the merger when the stream is complete even though worker streams
//	  may detach and rejoin arbitrarily along the way.
//
// The paper's transport (Section 4.4) has no such channel because it assumes
// a fixed worker set on long-lived connections; see DESIGN.md, "Failure
// model and recovery", for why this deliberate divergence is required once
// workers are allowed to fail.
const controlConnID = 0xFFFFFFFF

// controlLink is the splitter's end of the control channel.
type controlLink struct {
	conn      net.Conn
	readTO    time.Duration // per-frame read deadline; 0 = unbounded
	writeTO   time.Duration // per-frame write deadline; 0 = unbounded
	watermark atomic.Uint64
	// wmSignal is pulsed (coalesced) after every watermark advance.
	wmSignal chan struct{}
	// dead is closed when the merger side goes away.
	dead chan struct{}
}

// dialControl connects to the merger's listener and identifies the
// connection as the control channel, then starts the watermark reader.
func dialControl(addr string, to Timeouts) (*controlLink, error) {
	conn, err := net.DialTimeout("tcp", addr, to.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("runtime: splitter dial control channel: %w", err)
	}
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], controlConnID)
	if to.Handshake > 0 {
		conn.SetWriteDeadline(time.Now().Add(to.Handshake))
	}
	if _, err := conn.Write(id[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("runtime: splitter control handshake: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	c := &controlLink{
		conn:     conn,
		readTO:   to.ControlRead,
		writeTO:  to.ControlWrite,
		wmSignal: make(chan struct{}, 1),
		dead:     make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop consumes watermark frames until the connection dies. The merger
// writes a watermark every interval even when the merge is stalled, so a
// per-frame read deadline distinguishes a dead peer from a quiet one without
// any extra keepalive traffic.
func (c *controlLink) readLoop() {
	defer close(c.dead)
	var buf [8]byte
	for {
		if c.readTO > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.readTO))
		}
		if _, err := io.ReadFull(c.conn, buf[:]); err != nil {
			return
		}
		if v := binary.LittleEndian.Uint64(buf[:]); v > c.watermark.Load() {
			c.watermark.Store(v)
			select {
			case c.wmSignal <- struct{}{}:
			default:
			}
		}
	}
}

// Watermark returns the merger's latest released watermark: every sequence
// number below it has been released downstream exactly once.
func (c *controlLink) Watermark() uint64 {
	return c.watermark.Load()
}

// SendFin tells the merger how many tuples the completed source produced.
func (c *controlLink) SendFin(total uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], total)
	if c.writeTO > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.writeTO))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	if _, err := c.conn.Write(buf[:]); err != nil {
		return fmt.Errorf("runtime: splitter send fin: %w", err)
	}
	return nil
}

// Close tears down the splitter's end of the channel.
func (c *controlLink) Close() {
	c.conn.Close()
}
