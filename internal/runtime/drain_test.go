package runtime

import (
	"fmt"
	"testing"

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
				sp.ctrl = &controlLink{wmSignal: make(chan struct{}, 1), quarCh: make(chan int, 1), dead: make(chan struct{})}
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
				if got := sp.liveCount(); got != wantLive {
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
		sp.ctrl = &controlLink{wmSignal: make(chan struct{}, 1), quarCh: make(chan int, 1), dead: make(chan struct{})}
		sp.retained = append(sp.retained, retainEntry{seq: total - 1, conn: 0})
		if err := sp.drainFailure(total, 0, false); err != nil {
			t.Fatalf("all-dead believed at watermark == total: %v", err)
		}
		if sp.liveCount() != 0 {
			t.Fatal("fixture did not retire the last connection")
		}
	})
}
