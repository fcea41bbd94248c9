package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"streambalance/internal/transport"
)

// TestDrainFailureAfterFullRelease pins the drain race from the straggler
// flake report: a death or quarantine notice taken by drain's select after
// the merger has already released everything (watermark == total) must be
// dropped — no connection retired, nothing replayed into the pipeline the
// merger is tearing down. The same notice with tuples still unreleased must
// be acted on, which is also what shows the fixture could replay at all.
func TestDrainFailureAfterFullRelease(t *testing.T) {
	const total = 4
	for _, quarantined := range []bool{false, true} {
		for _, released := range []bool{true, false} {
			t.Run(fmt.Sprintf("quarantine=%v/released=%v", quarantined, released), func(t *testing.T) {
				tx0, rx0 := transport.InprocPair(16)
				tx1, rx1 := transport.InprocPair(16)
				replayed := 0
				sp, err := NewSplitter(SplitterConfig{
					Senders: []transport.BatchSender{tx0, tx1},
					Source:  func(uint64) ([]byte, bool) { return nil, false },
					OnConnEvent: func(ev ConnEvent) {
						if ev.Kind == "replay" {
							replayed += ev.Tuples
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				sp.ctrl = &controlLink{wmSignal: make(chan struct{}, 1), dead: make(chan struct{})}
				for seq := uint64(0); seq < total; seq++ {
					sp.retained = append(sp.retained, retainEntry{seq: seq, conn: 0, payload: []byte{byte(seq)}})
				}
				if released {
					sp.ctrl.watermark.Store(total)
				}
				if err := sp.drainFailure(total, 0, quarantined); err != nil {
					t.Fatalf("drainFailure: %v", err)
				}
				wantLive, wantReplayed := 2, 0
				if !released {
					wantLive, wantReplayed = 1, total
				}
				if got := len(sp.conns); got != wantLive {
					t.Errorf("%d live connections, want %d", got, wantLive)
				}
				if replayed != wantReplayed || rx0.Len()+rx1.Len() != wantReplayed {
					t.Errorf("replayed %d tuples (%d on the edges), want %d", replayed, rx0.Len()+rx1.Len(), wantReplayed)
				}
			})
		}
	}

	// With the last connection gone the failure handler reports all workers
	// failed; drain must not believe that either once everything is out.
	t.Run("all-dead", func(t *testing.T) {
		tx, _ := transport.InprocPair(16)
		var sp *Splitter
		sp, err := NewSplitter(SplitterConfig{
			Senders: []transport.BatchSender{tx},
			Source:  func(uint64) ([]byte, bool) { return nil, false },
			// The merger finishes while the failure is being handled.
			OnConnEvent: func(ConnEvent) { sp.ctrl.watermark.Store(total) },
		})
		if err != nil {
			t.Fatal(err)
		}
		sp.ctrl = &controlLink{wmSignal: make(chan struct{}, 1), dead: make(chan struct{})}
		sp.retained = append(sp.retained, retainEntry{seq: total - 1, conn: 0})
		if err := sp.drainFailure(total, 0, false); err != nil {
			t.Fatalf("all-dead believed at watermark == total: %v", err)
		}
		if len(sp.conns) != 0 {
			t.Fatal("fixture did not retire the last connection")
		}
	})
}

// stallFixture is a recovery splitter over three in-proc edges with a fake
// control link and no send loop: the test builds the replay buffer by hand,
// sets the watermark, and runs the merge-stall check at instants it chooses.
// fail records the check's quarantines instead of acting on them.
type stallFixture struct {
	sp          *Splitter
	quarantined []int
}

func newStallFixture(t *testing.T, window time.Duration, start time.Time) *stallFixture {
	t.Helper()
	var senders []transport.BatchSender
	for i := 0; i < 3; i++ {
		tx, _ := transport.InprocPair(64)
		senders = append(senders, tx)
	}
	sp, err := NewSplitter(SplitterConfig{
		Senders:  senders,
		Source:   func(uint64) ([]byte, bool) { return nil, false },
		Recovery: RecoveryConfig{StallWindow: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.ctrl = &controlLink{wmSignal: make(chan struct{}, 1), dead: make(chan struct{})}
	sp.stallSince = start
	return &stallFixture{sp: sp}
}

// retain appends sent-but-unreleased tuples [from, to) carried by conn.
func (f *stallFixture) retain(from, to uint64, conn int) {
	for seq := from; seq < to; seq++ {
		f.sp.retained = append(f.sp.retained, retainEntry{seq: seq, conn: conn, payload: []byte{byte(seq)}})
	}
}

func (f *stallFixture) check(t *testing.T, now time.Time) {
	t.Helper()
	err := f.sp.checkStall(now, func(id int, quarantined bool) error {
		if !quarantined {
			t.Errorf("stall check reported worker %d as dead, not quarantined", id)
		}
		f.quarantined = append(f.quarantined, id)
		return nil
	})
	if err != nil {
		t.Fatalf("checkStall: %v", err)
	}
}

// TestStallCheck drives the splitter's merge-stall check with explicit
// instants, no sleeps: what it quarantines, and when its clock restarts.
func TestStallCheck(t *testing.T) {
	const w = 100 * time.Millisecond
	t0 := time.Now()

	t.Run("idle-source", func(t *testing.T) {
		// Everything sent was released; the watermark then sits still for
		// many windows because the source has nothing to send.
		f := newStallFixture(t, w, t0)
		f.retain(0, 4, 1)
		f.sp.ctrl.watermark.Store(4)
		for at := time.Duration(0); at <= 5*w; at += w / 4 {
			f.check(t, t0.Add(at))
		}
		if len(f.quarantined) != 0 {
			t.Fatalf("idle source quarantined %v", f.quarantined)
		}
	})

	t.Run("stuck-head-once-per-window", func(t *testing.T) {
		f := newStallFixture(t, w, t0)
		f.retain(0, 4, 1) // the head-of-line tuples sit on connection 1
		f.retain(4, 8, 0)
		f.retain(8, 12, 2)
		perWindow := map[int]int{}
		for at := w / 4; at <= 3*w; at += w / 4 {
			before := len(f.quarantined)
			f.check(t, t0.Add(at))
			if len(f.quarantined) > before {
				perWindow[int((at-1)/w)]++
			}
		}
		if fmt.Sprint(f.quarantined) != "[1 1 1]" {
			t.Fatalf("quarantined %v over three windows, want [1 1 1]", f.quarantined)
		}
		for win, n := range perWindow {
			if n != 1 {
				t.Errorf("window %d quarantined %d times, want 1", win, n)
			}
		}
	})

	t.Run("advance-resets-clock", func(t *testing.T) {
		f := newStallFixture(t, w, t0)
		f.retain(0, 8, 1)
		f.check(t, t0.Add(w-time.Nanosecond))
		f.sp.ctrl.watermark.Store(1) // progress, though the head is still on 1
		f.check(t, t0.Add(w))
		f.check(t, t0.Add(2*w-time.Nanosecond))
		if len(f.quarantined) != 0 {
			t.Fatalf("quarantined %v within a window of an advance", f.quarantined)
		}
		f.check(t, t0.Add(2*w))
		if fmt.Sprint(f.quarantined) != "[1]" {
			t.Fatalf("quarantined %v one window after the advance, want [1]", f.quarantined)
		}
	})

	t.Run("replay-restarts-clock", func(t *testing.T) {
		// The watermark has been stuck for longer than a window when
		// connection 1 dies; its tuples move to the survivors, which must
		// get a full window to release them.
		f := newStallFixture(t, w, t0.Add(-2*w))
		f.retain(0, 4, 1)
		f.retain(4, 8, 0)
		if err := f.sp.connFailed(1, false); err != nil {
			t.Fatal(err)
		}
		replayed := f.sp.stallSince
		if !replayed.After(t0.Add(-2 * w)) {
			t.Fatal("the replay did not restart the stall clock")
		}
		owner := f.sp.headOwner()
		if owner < 0 || owner == 1 {
			t.Fatalf("head owner after the replay is %d, want a survivor", owner)
		}
		f.check(t, replayed.Add(w-time.Nanosecond))
		if len(f.quarantined) != 0 {
			t.Fatalf("survivor quarantined %v within a window of the replay", f.quarantined)
		}
		f.check(t, replayed.Add(w))
		if fmt.Sprint(f.quarantined) != fmt.Sprint([]int{owner}) {
			t.Fatalf("quarantined %v a window after the replay, want [%d]", f.quarantined, owner)
		}
	})

	t.Run("last-live-connection", func(t *testing.T) {
		// Two of three workers are gone and the survivor holds the stuck
		// head: it has no peer to be slow next to, and ejecting it would fail
		// the region. The check spares it and restarts the clock instead.
		f := newStallFixture(t, w, t0)
		f.retain(0, 4, 1)
		for _, id := range []int{0, 2} {
			if !f.sp.removeConn(f.sp.findLive(id), errors.New("gone")) {
				t.Fatalf("connection %d was not live", id)
			}
		}
		for at := w / 4; at <= 5*w; at += w / 4 {
			f.check(t, t0.Add(at))
		}
		if len(f.quarantined) != 0 || len(f.sp.conns) != 1 {
			t.Fatalf("quarantined %v with one live connection (%d left)", f.quarantined, len(f.sp.conns))
		}
		if got := f.sp.stallSince; !got.Equal(t0.Add(5 * w)) {
			t.Fatalf("stall clock at %v after the last check, want it restarted at %v", got.Sub(t0), 5*w)
		}
	})

	t.Run("watermark-at-total", func(t *testing.T) {
		// The merger released the whole stream; the buffer is not pruned
		// yet. A check taken now, however late, does nothing.
		const total = 6
		f := newStallFixture(t, w, t0)
		f.retain(0, total, 2)
		f.sp.ctrl.watermark.Store(total)
		f.check(t, t0)
		f.check(t, t0.Add(10*w))
		if len(f.quarantined) != 0 || len(f.sp.conns) != 3 {
			t.Fatalf("quarantined %v with %d live at watermark == total", f.quarantined, len(f.sp.conns))
		}
	})
}
