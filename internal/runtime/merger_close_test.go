package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"streambalance/internal/metrics"
	"streambalance/internal/spsc"
	"streambalance/internal/testutil"
	"streambalance/internal/transport"
)

// setRings gives every stream of an unstarted merger an ingest ring of n
// slots: below its reorder cap, a reader parks on a full ring.
func setRings(m *Merger, n int) {
	for id := range m.rings {
		m.rings[id] = spsc.NewRing[mergeItem](n)
	}
}

// TestMergerCloseRacesInFlightBatch closes the merger while readers are
// mid-batch with a deliberately tiny ring — the shape where a reader can be
// parked on a full ring, holding block references for the rest of its batch,
// at the instant teardown begins. Close must wake it, the reader must release
// its in-hand references and exit, and drainLeftovers must return everything
// still queued: no goroutine leak, no double release (the transport pool
// panics on refcount underflow), across a spread of race timings.
func TestMergerCloseRacesInFlightBatch(t *testing.T) {
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond} {
		var released atomic.Uint64
		m, err := NewMerger(2, 16, func(transport.Tuple, int) {
			released.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		setRings(m, 2)
		m.Start()

		c0 := dialWorkerConn(t, m.Addr(), 0)
		c1 := dialWorkerConn(t, m.Addr(), 1)
		// Both streams burst: conn 0 in order (releasable, so the merge loop
		// is busy sinking), conn 1 with a leading gap (unreleasable, so its
		// backlog climbs toward the cap while Close fires).
		go func() {
			var frame []byte
			for seq := uint64(0); seq < 4000; seq += 2 {
				frame, _ = transport.AppendFrame(frame[:0], transport.Tuple{Seq: seq})
				if _, err := c0.Write(frame); err != nil {
					return
				}
			}
		}()
		go func() {
			var frame []byte
			for seq := uint64(3); seq < 4000; seq += 2 {
				frame, _ = transport.AppendFrame(frame[:0], transport.Tuple{Seq: seq})
				if _, err := c1.Write(frame); err != nil {
					return
				}
			}
		}()

		time.Sleep(delay)
		m.Close()

		done := make(chan error, 1)
		go func() { done <- m.Wait() }()
		select {
		case <-done:
			// A closed merge reports an error; the contract under test is
			// prompt, leak-free teardown, not the verdict.
		case <-time.After(5 * time.Second):
			t.Fatalf("delay %v: merger did not tear down after Close", delay)
		}
		c0.Close()
		c1.Close()
		testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
	}
}

// TestMergerCloseRacesBackpressureParkedReader parks a reader at its
// back-pressure cap for real — no control channel attaches, so the cap
// binds, and a slow sink keeps the merge loop busy while the reader outruns
// the releases — then closes the merger. The parked reader must observe
// closed on wake, release the rest of its batch, and exit; nothing may stay
// parked on a condvar nobody will signal again.
func TestMergerCloseRacesBackpressureParkedReader(t *testing.T) {
	m, err := NewMerger(2, 8, func(transport.Tuple, int) {
		time.Sleep(200 * time.Microsecond) // slow consumer: backlog presses the cap
	})
	if err != nil {
		t.Fatal(err)
	}
	setRings(m, 2)
	m.SetMetrics(NewRegionMetrics(metrics.New(), nil)) // the park counter is the test's window
	m.Start()

	c0 := dialWorkerConn(t, m.Addr(), 0)
	c1 := dialWorkerConn(t, m.Addr(), 1) // silent second stream keeps the merge live
	stop := make(chan struct{})
	go func() {
		var frame []byte
		for seq := uint64(0); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			frame, _ = transport.AppendFrame(frame[:0], transport.Tuple{Seq: seq})
			if _, err := c0.Write(frame); err != nil {
				return
			}
		}
	}()

	// Wait until the reader is actually parked (cap wait or full ring —
	// both are condvar parks teardown must break).
	deadline := time.Now().Add(2 * time.Second)
	for m.mParks.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.mParks.Value() == 0 {
		t.Fatal("reader never parked against the slow sink")
	}

	m.Close()
	done := make(chan error, 1)
	go func() { done <- m.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("merger did not tear down with a cap-parked reader")
	}
	close(stop)
	c0.Close()
	c1.Close()
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}
