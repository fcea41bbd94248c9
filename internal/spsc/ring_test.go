package spsc_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"streambalance/internal/spsc"
	"streambalance/internal/transport"
)

// ringSlots tells ringSuite how to build and read one slot type.
type ringSlots[T any] struct {
	// make builds a slot carrying seq and no block reference.
	make func(seq uint64) T
	// seq reads the slot's sequence number back.
	seq func(T) uint64
	// batch returns n slots, seqs 0..n-1, that each hold one reference on a
	// shared reference-counted block, and a reader of the block's
	// outstanding count; release drops one slot's reference. Both nil for a
	// slot type that carries no reference.
	batch   func(t *testing.T, n int) (slots []T, refs func() int64)
	release func(T)
}

// refSlot has the shape of both slot types the data path instantiates the
// ring for — transport's in-proc edge item and the merger's ingest lane item
// are each a tuple plus the block reference that rides with it. Those types
// are unexported in their packages, which run their own slot-specific tests
// (TestInprocItemRing, TestMergeItemRing); the properties that do not depend
// on the slot type are checked here, for this shape and for a bare word.
type refSlot struct {
	t   transport.Tuple
	ref *transport.BlockRef
}

func TestRingRefSlot(t *testing.T) {
	ringSuite(t, ringSlots[refSlot]{
		make: func(seq uint64) refSlot { return refSlot{t: transport.Tuple{Seq: seq}} },
		seq:  func(s refSlot) uint64 { return s.t.Seq },
		// Real ReceiveBatch output: tuples aliasing a pooled block with a
		// live reference count. The receiver is run to EOF so that it has
		// given up its own reference and the count is the tuples' alone.
		batch: func(t *testing.T, n int) ([]refSlot, func() int64) {
			ts := make([]transport.Tuple, n)
			for seq := range ts {
				ts[seq] = transport.Tuple{Seq: uint64(seq), Payload: []byte("payload")}
			}
			wire, err := transport.AppendBatch(nil, ts)
			if err != nil {
				t.Fatal(err)
			}
			rc := transport.NewReceiver(bytes.NewReader(wire))
			batch, ref, err := rc.ReceiveBatch(nil, n)
			if err != nil || len(batch) != n {
				t.Fatalf("decoded %d of %d tuples: %v", len(batch), n, err)
			}
			if _, _, err := rc.ReceiveBatch(nil, 1); err != io.EOF {
				t.Fatalf("after the batch: %v, want io.EOF", err)
			}
			slots := make([]refSlot, n)
			for i := range batch {
				slots[i] = refSlot{t: batch[i], ref: ref}
			}
			return slots, ref.Refs
		},
		release: func(s refSlot) { s.ref.Release() },
	})
}

func TestRingWord(t *testing.T) {
	ringSuite(t, ringSlots[uint64]{
		make: func(seq uint64) uint64 { return seq },
		seq:  func(s uint64) uint64 { return s },
	})
}

// ringSuite property-checks spsc.Ring instantiated for one slot type:
// capacity rounding, FIFO order across wraparound at every phase, the exact
// full/empty boundary, a testing/quick model check, the two-goroutine
// protocol (meaningful under -race: the cursor stores are the only
// happens-before for the slot contents), and reference conservation when
// reference-holding slots ride the ring.
func ringSuite[T any](t *testing.T, s ringSlots[T]) {
	t.Run("CapacityRounding", func(t *testing.T) {
		for _, c := range []struct{ ask, want int }{
			{-1, 2}, {0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
			{1000, 1024}, {1024, 1024}, {1025, 2048},
		} {
			if got := spsc.NewRing[T](c.ask).Cap(); got != c.want {
				t.Errorf("NewRing(%d).Cap() = %d, want %d", c.ask, got, c.want)
			}
		}
	})

	// model drives one ring against a slice model with the given push/pop
	// choices, reporting the first divergence.
	model := func(r *spsc.Ring[T], preload int, steps int, push func() bool) error {
		var want []uint64
		seq := uint64(0)
		for step := 0; step < preload+steps; step++ {
			if step < preload || push() {
				ok := r.Push(s.make(seq))
				if ok != (len(want) < r.Cap()) {
					return fmt.Errorf("step %d: push ok=%v with occupancy %d/%d", step, ok, len(want), r.Cap())
				}
				if ok {
					want = append(want, seq)
					seq++
				}
				if len(want) == r.Cap() && !r.Full() {
					return fmt.Errorf("step %d: ring at capacity but Full() = false", step)
				}
			} else {
				it, ok := r.Pop()
				if ok != (len(want) > 0) {
					return fmt.Errorf("step %d: pop ok=%v with occupancy %d", step, ok, len(want))
				}
				if ok {
					if s.seq(it) != want[0] {
						return fmt.Errorf("step %d: popped seq %d, want %d (FIFO broken)", step, s.seq(it), want[0])
					}
					want = want[1:]
				}
			}
			if got := r.Len(); got != len(want) {
				return fmt.Errorf("step %d: Len() = %d, want %d", step, got, len(want))
			}
		}
		return nil
	}

	// A tiny ring driven far past its capacity from every preload offset, so
	// the cursors wrap the buffer hundreds of times at every alignment.
	t.Run("WraparoundFIFO", func(t *testing.T) {
		for phase := 0; phase < 5; phase++ {
			rng := rand.New(rand.NewSource(int64(phase)))
			if err := model(spsc.NewRing[T](4), phase, 2000, func() bool { return rng.Intn(2) == 0 }); err != nil {
				t.Fatalf("phase %d: %v", phase, err)
			}
		}
	})

	t.Run("QuickInvariant", func(t *testing.T) {
		check := func(capAsk uint8, ops []bool) bool {
			i := 0
			return model(spsc.NewRing[T](int(capAsk%64)), 0, len(ops), func() bool { i++; return ops[i-1] }) == nil
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ConcurrentFIFO", func(t *testing.T) {
		const n = 200000
		r := spsc.NewRing[T](8)
		done := make(chan error, 1)
		go func() {
			for seq := uint64(0); seq < n; {
				if r.Push(s.make(seq)) {
					seq++
				} else {
					runtime.Gosched()
				}
			}
		}()
		go func() {
			for want := uint64(0); want < n; {
				it, ok := r.Pop()
				if !ok {
					runtime.Gosched()
					continue
				}
				if s.seq(it) != want {
					done <- fmt.Errorf("popped seq %d, want %d (FIFO order broken)", s.seq(it), want)
					return
				}
				want++
			}
			done <- nil
		}()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})

	// The conservation law exactly-once release depends on: at every step
	// the block's reference count equals the slots still unreleased — not
	// yet pushed, riding the ring, or in the consumer's hand.
	t.Run("RefcountInvariant", func(t *testing.T) {
		if s.batch == nil {
			t.Skip("slot type carries no reference")
		}
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(64)
			slots, refs := s.batch(t, n)
			if got := refs(); got != int64(n) {
				t.Fatalf("trial %d: fresh batch holds %d refs, want %d", trial, got, n)
			}
			r := spsc.NewRing[T](2 + rng.Intn(8))
			pushed, released := 0, 0
			for released < n {
				if pushed < n && rng.Intn(2) == 0 {
					if r.Push(slots[pushed]) {
						pushed++
					}
				} else if it, ok := r.Pop(); ok {
					if s.seq(it) != uint64(released) {
						t.Fatalf("trial %d: popped seq %d, want %d", trial, s.seq(it), released)
					}
					s.release(it)
					released++
				} else if pushed-released != 0 {
					t.Fatalf("trial %d: pop failed with %d in ring", trial, pushed-released)
				}
				if got, want := refs(), int64(n-released); got != want {
					t.Fatalf("trial %d: %d refs live, want %d (pushed %d released %d)", trial, got, want, pushed, released)
				}
			}
		}
	})
}
