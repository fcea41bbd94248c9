package chaos

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// chunkSize is the proxy's forwarding granularity. Small enough that delay
// and throttle act per-chunk rather than per-connection, large enough not
// to dominate CPU.
const chunkSize = 8 << 10

// Proxy is a TCP proxy that forwards between its listener and a backend,
// injecting faults on demand. All knobs may be flipped while connections
// are live; they apply to every link, in both directions, from the next
// chunk onward.
type Proxy struct {
	addr string // listen address, stable across reject cycles

	mu        sync.Mutex
	ln        net.Listener
	backend   string
	delay     time.Duration
	throttle  int // bytes per second; 0 = unlimited
	chunk     int // max bytes forwarded per read; 0 = chunkSize
	blackhole bool
	stall     bool // stop reading entirely; back-pressure builds upstream
	drip      int  // forward byte-by-byte at this rate; 0 = off
	reject    bool // refuse new connections (backend "down")
	links     map[*link]struct{}
	closed    bool
	accepted  int
	kills     int

	lnCh chan net.Listener // hands re-opened listeners to the accept loop
	stop chan struct{}
	wg   sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client net.Conn
	server net.Conn
}

func (l *link) closeBoth() {
	l.client.Close()
	l.server.Close()
}

// NewProxy listens on a fresh loopback port and forwards connections to
// backend.
func NewProxy(backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		addr:    ln.Addr().String(),
		ln:      ln,
		backend: backend,
		links:   make(map[*link]struct{}),
		lnCh:    make(chan net.Listener, 1),
		stop:    make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address clients should dial instead of the backend. It is
// stable across SetReject cycles.
func (p *Proxy) Addr() string {
	return p.addr
}

// SetBackend retargets new connections — e.g. at a restarted worker
// listening on a fresh port. Existing links are unaffected.
func (p *Proxy) SetBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// SetDelay adds a fixed delay before each forwarded chunk (0 disables).
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// SetThrottle caps forwarded bandwidth in bytes/second (0 disables).
func (p *Proxy) SetThrottle(bytesPerSec int) {
	p.mu.Lock()
	p.throttle = bytesPerSec
	p.mu.Unlock()
}

// SetChunk caps how many bytes the proxy forwards per read (0 restores the
// default chunkSize). Tiny values split the stream at arbitrary byte
// boundaries — mid-header, mid-payload — which is how the transport tests
// exercise partial-write and partial-read resumption.
func (p *Proxy) SetChunk(n int) {
	p.mu.Lock()
	p.chunk = n
	p.mu.Unlock()
}

// SetBlackhole, when on, silently discards all traffic in both directions
// while keeping connections open — a gray failure no error path reports.
func (p *Proxy) SetBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
}

// SetStall, when on, freezes every pump before its next read while keeping
// connections and the listener open. Unread bytes pile up in the proxy's
// kernel receive buffers until the upstream sender blocks — the straggler
// failure mode: a worker that accepts but never drains. SetStall(false)
// resumes forwarding, including everything queued during the stall.
func (p *Proxy) SetStall(on bool) {
	p.mu.Lock()
	p.stall = on
	p.mu.Unlock()
}

// SetSlowDrip forwards one byte at a time at the given rate (bytes/second),
// modelling a worker that is technically alive but uselessly slow — slow
// enough to stall the merge, yet never slow enough to trip a connection
// error on its own. 0 disables.
func (p *Proxy) SetSlowDrip(bytesPerSec int) {
	p.mu.Lock()
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	p.drip = bytesPerSec
	p.mu.Unlock()
}

// SetReject, when on, closes the listener so new dials get connection
// refused — what a dialer sees while a killed worker has not come back yet.
// SetReject(false) re-listens on the same port. It returns an error only if
// the port could not be re-acquired.
func (p *Proxy) SetReject(on bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || on == p.reject {
		return nil
	}
	p.reject = on
	if on {
		p.ln.Close()
		return nil
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		p.reject = true
		return fmt.Errorf("chaos: re-listen on %s: %w", p.addr, err)
	}
	p.ln = ln
	select {
	case p.lnCh <- ln:
	default:
	}
	return nil
}

// KillActive severs every live link (both sides), simulating the backend
// crashing mid-stream, and returns how many links died.
func (p *Proxy) KillActive() int {
	p.mu.Lock()
	n := len(p.links)
	for l := range p.links {
		l.closeBoth()
	}
	p.kills += n
	p.mu.Unlock()
	return n
}

// Active returns the number of live links.
func (p *Proxy) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.links)
}

// Accepted returns how many connections the proxy has admitted.
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// Close stops the proxy and severs all links.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for l := range p.links {
		l.closeBoth()
	}
	ln := p.ln
	p.mu.Unlock()
	close(p.stop)
	ln.Close()
	p.wg.Wait()
}

// Step is one scheduled fault: After the given duration (measured from the
// previous step), Do runs against the proxy.
type Step struct {
	After time.Duration
	Do    func(*Proxy)
}

// Schedule runs the steps sequentially in the background; Close aborts the
// remainder. It returns a channel closed when the script finishes.
func (p *Proxy) Schedule(steps ...Step) <-chan struct{} {
	done := make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(done)
		for _, s := range steps {
			timer := time.NewTimer(s.After)
			select {
			case <-p.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
			s.Do(p)
		}
	}()
	return done
}

// Kill returns a step action severing all live links.
func Kill() func(*Proxy) { return func(p *Proxy) { p.KillActive() } }

// Delay returns a step action setting the per-chunk delay.
func Delay(d time.Duration) func(*Proxy) { return func(p *Proxy) { p.SetDelay(d) } }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		ln := p.ln
		closed := p.closed
		rejecting := p.reject
		p.mu.Unlock()
		if closed {
			return
		}
		if rejecting {
			// The listener is down; wait for SetReject(false) or Close.
			select {
			case <-p.stop:
				return
			case <-p.lnCh:
				continue
			}
		}
		client, err := ln.Accept()
		if err != nil {
			// Either Close or a reject cycle closed the listener; loop
			// to find out which.
			continue
		}
		p.mu.Lock()
		backend := p.backend
		drop := p.reject || p.closed
		p.mu.Unlock()
		if drop {
			client.Close()
			continue
		}
		server, err := net.Dial("tcp", backend)
		if err != nil {
			client.Close()
			continue
		}
		l := &link{client: client, server: server}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			l.closeBoth()
			continue
		}
		p.links[l] = struct{}{}
		p.accepted++
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(l, client, server)
		go p.pump(l, server, client)
	}
}

// pump forwards one direction of a link chunk by chunk, consulting the
// fault knobs before each write. On any error it severs the whole link.
func (p *Proxy) pump(l *link, from, to net.Conn) {
	defer p.wg.Done()
	defer p.unlink(l)
	buf := make([]byte, chunkSize)
	for {
		p.mu.Lock()
		rd := buf
		if p.chunk > 0 && p.chunk < len(buf) {
			rd = buf[:p.chunk]
		}
		stalled := p.stall
		if p.drip > 0 {
			rd = buf[:1]
		}
		p.mu.Unlock()
		// A stalled pump parks before the read: bytes queue in the kernel
		// until the sender blocks, and nothing is lost for the resume.
		for stalled {
			if !p.sleep(2 * time.Millisecond) {
				return
			}
			p.mu.Lock()
			stalled = p.stall
			p.mu.Unlock()
		}
		n, err := from.Read(rd)
		if n > 0 {
			p.mu.Lock()
			delay := p.delay
			throttle := p.throttle
			blackhole := p.blackhole
			drip := p.drip
			p.mu.Unlock()
			if delay > 0 {
				if !p.sleep(delay) {
					return
				}
			}
			if throttle > 0 {
				d := time.Duration(float64(n) / float64(throttle) * float64(time.Second))
				if !p.sleep(d) {
					return
				}
			}
			if drip > 0 {
				d := time.Duration(float64(n) / float64(drip) * float64(time.Second))
				if !p.sleep(d) {
					return
				}
			}
			if !blackhole {
				if _, werr := to.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				return
			}
			// Half-close: propagate EOF but keep the reverse path open.
			if tc, ok := to.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// sleep waits d unless the proxy closes first.
func (p *Proxy) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-p.stop:
		return false
	case <-timer.C:
		return true
	}
}

// unlink removes and severs a link once either direction ends.
func (p *Proxy) unlink(l *link) {
	p.mu.Lock()
	if _, ok := p.links[l]; ok {
		delete(p.links, l)
	}
	p.mu.Unlock()
	l.closeBoth()
}
