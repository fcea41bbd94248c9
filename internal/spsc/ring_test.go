package spsc_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
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

// slotAt returns slot i of the spans a, b taken as one sequence — how a
// caller that does not care where the buffer wraps addresses Free or Ready.
func slotAt[T any](a, b []T, i int) *T {
	if i < len(a) {
		return &a[i]
	}
	return &b[i-len(a)]
}

// ringModel drives one ring against a slice model, reporting the first
// divergence. The first preload steps push one item each; every later step
// draws one of four operations — a per-item Push, a per-item Pop, a span
// publish (fill a drawn k of the Free slots, 0 and all of them included, and
// Publish(k)) or a span release (check a drawn prefix of Ready in place and
// Release it) — so every mix of the two APIs shares the cursors. draw(n)
// returns a choice in [0, n). After every step the ring must agree with the
// model on Len and Full, Free and Ready must offer exactly the model's free
// and occupied counts, and every Free slot must be zero.
func ringModel[T any](s ringSlots[T], r *spsc.Ring[T], preload, steps int, draw func(n int) int) error {
	var want []uint64
	seq := uint64(0)
	for step := 0; step < preload+steps; step++ {
		op := 0
		if step >= preload {
			op = draw(4)
		}
		switch op {
		case 0:
			ok := r.Push(s.make(seq))
			if ok != (len(want) < r.Cap()) {
				return fmt.Errorf("step %d: push ok=%v with occupancy %d/%d", step, ok, len(want), r.Cap())
			}
			if ok {
				want = append(want, seq)
				seq++
			}
		case 1:
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
		case 2:
			a, b := r.Free()
			k := draw(len(a) + len(b) + 1)
			for i := 0; i < k; i++ {
				*slotAt(a, b, i) = s.make(seq)
				want = append(want, seq)
				seq++
			}
			r.Publish(k)
		case 3:
			a, b := r.Ready()
			k := draw(len(a) + len(b) + 1)
			for i := 0; i < k; i++ {
				if got := s.seq(*slotAt(a, b, i)); got != want[i] {
					return fmt.Errorf("step %d: Ready[%d] holds seq %d, want %d (FIFO broken)", step, i, got, want[i])
				}
			}
			r.Release(k)
			want = want[k:]
		}
		if got := r.Len(); got != len(want) {
			return fmt.Errorf("step %d (op %d): Len() = %d, want %d", step, op, got, len(want))
		}
		if r.Full() != (len(want) == r.Cap()) {
			return fmt.Errorf("step %d (op %d): Full() = %v at occupancy %d/%d", step, op, r.Full(), len(want), r.Cap())
		}
		fa, fb := r.Free()
		if got := len(fa) + len(fb); got != r.Cap()-len(want) {
			return fmt.Errorf("step %d (op %d): Free offers %d+%d slots, want %d", step, op, len(fa), len(fb), r.Cap()-len(want))
		}
		for i := 0; i < len(fa)+len(fb); i++ {
			if slot := *slotAt(fa, fb, i); !reflect.ValueOf(slot).IsZero() {
				return fmt.Errorf("step %d (op %d): Free slot %d is not zero: %+v", step, op, i, slot)
			}
		}
		ra, rb := r.Ready()
		if got := len(ra) + len(rb); got != len(want) {
			return fmt.Errorf("step %d (op %d): Ready offers %d+%d slots, want %d", step, op, len(ra), len(rb), len(want))
		}
		if (len(want) > 0 && len(ra) == 0) || (len(want) < r.Cap() && len(fa) == 0) {
			return fmt.Errorf("step %d (op %d): first span empty while the second is not", step, op)
		}
	}
	return nil
}

// FuzzRingSpans feeds ringModel its choices from the fuzz input: byte 0 asks
// for the capacity, every later byte is one draw (reduced modulo the number
// of choices), so the corpus explores span/per-item interleavings and
// publish/release sizes the seeded generators above never visit. The seed
// corpus is testdata/fuzz/FuzzRingSpans.
func FuzzRingSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		i := 0
		draw := func(n int) int { i++; return int(ops[1+i%(len(ops)-1)]) % n }
		slots := ringSlots[uint64]{
			make: func(seq uint64) uint64 { return seq + 1 }, // a zero slot must mean "never written"
			seq:  func(s uint64) uint64 { return s - 1 },
		}
		if err := ringModel(slots, spsc.NewRing[uint64](int(ops[0]%33)), 0, len(ops)-1, draw); err != nil {
			t.Fatal(err)
		}
	})
}

// ringSuite property-checks spsc.Ring instantiated for one slot type:
// capacity rounding, FIFO order across wraparound at every phase, the exact
// full/empty boundary, a testing/quick model check, the two-goroutine
// protocol (meaningful under -race: the cursor stores are the only
// happens-before for the slot contents), and reference conservation when
// reference-holding slots ride the ring — each under every mix of the span
// and the per-item operations.
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

	// A tiny ring driven far past its capacity from every preload offset, so
	// the cursors wrap the buffer hundreds of times at every alignment. The
	// capacity-2 ring is what a requested capacity of 1 rounds to: its spans
	// are one slot each wherever the cursor sits.
	t.Run("WraparoundFIFO", func(t *testing.T) {
		for _, capacity := range []int{4, 1} {
			for phase := 0; phase <= spsc.NewRing[T](capacity).Cap(); phase++ {
				rng := rand.New(rand.NewSource(int64(phase)))
				if err := ringModel(s, spsc.NewRing[T](capacity), phase, 2000, rng.Intn); err != nil {
					t.Fatalf("capacity %d phase %d: %v", capacity, phase, err)
				}
			}
		}
	})

	t.Run("QuickInvariant", func(t *testing.T) {
		check := func(capAsk uint8, ops []uint8) bool {
			i := 0
			draw := func(n int) int { i++; return int(ops[i%len(ops)]) % n }
			return ringModel(s, spsc.NewRing[T](int(capAsk%64)), 0, len(ops), draw) == nil
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatal(err)
		}
	})

	// Both sides in each API, all four pairings: the span producer fills and
	// publishes 1..5 slots at a time, the span consumer checks everything
	// Ready offers in place and releases it.
	pushItems := func(r *spsc.Ring[T], n uint64) {
		for seq := uint64(0); seq < n; {
			if r.Push(s.make(seq)) {
				seq++
			} else {
				runtime.Gosched()
			}
		}
	}
	publishSpans := func(r *spsc.Ring[T], n uint64) {
		for seq := uint64(0); seq < n; {
			a, b := r.Free()
			k := min(uint64(len(a)+len(b)), 1+seq%5, n-seq)
			for i := uint64(0); i < k; i++ {
				*slotAt(a, b, int(i)) = s.make(seq + i)
			}
			r.Publish(int(k))
			seq += k
			if k == 0 {
				runtime.Gosched()
			}
		}
	}
	popItems := func(r *spsc.Ring[T], n uint64) error {
		for want := uint64(0); want < n; {
			it, ok := r.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if s.seq(it) != want {
				return fmt.Errorf("popped seq %d, want %d (FIFO order broken)", s.seq(it), want)
			}
			want++
		}
		return nil
	}
	releaseSpans := func(r *spsc.Ring[T], n uint64) error {
		for want := uint64(0); want < n; {
			a, b := r.Ready()
			for _, span := range [2][]T{a, b} {
				for i := range span {
					if s.seq(span[i]) != want {
						return fmt.Errorf("Ready holds seq %d, want %d (FIFO order broken)", s.seq(span[i]), want)
					}
					want++
				}
			}
			r.Release(len(a) + len(b))
			if len(a) == 0 {
				runtime.Gosched()
			}
		}
		return nil
	}
	t.Run("ConcurrentFIFO", func(t *testing.T) {
		for _, pair := range []struct {
			name     string
			producer func(*spsc.Ring[T], uint64)
			consumer func(*spsc.Ring[T], uint64) error
		}{
			{"item-item", pushItems, popItems},
			{"span-span", publishSpans, releaseSpans},
			{"span-item", publishSpans, popItems},
			{"item-span", pushItems, releaseSpans},
		} {
			t.Run(pair.name, func(t *testing.T) {
				const n = 200000
				r := spsc.NewRing[T](8)
				done := make(chan error, 1)
				go pair.producer(r, n)
				go func() { done <- pair.consumer(r, n) }()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			})
		}
	})

	// The conservation law exactly-once release depends on: at every step
	// the block's reference count equals the slots still unreleased — not
	// yet published, riding the ring, or in the consumer's hand.
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
				switch rng.Intn(4) {
				case 0:
					if pushed < n && r.Push(slots[pushed]) {
						pushed++
					}
				case 1:
					a, b := r.Free()
					k := rng.Intn(min(len(a)+len(b), n-pushed) + 1)
					filled := copy(a, slots[pushed:pushed+k])
					copy(b, slots[pushed+filled:pushed+k])
					r.Publish(k)
					pushed += k
				case 2:
					if it, ok := r.Pop(); ok {
						if s.seq(it) != uint64(released) {
							t.Fatalf("trial %d: popped seq %d, want %d", trial, s.seq(it), released)
						}
						s.release(it)
						released++
					} else if pushed-released != 0 {
						t.Fatalf("trial %d: pop failed with %d in ring", trial, pushed-released)
					}
				case 3:
					a, b := r.Ready()
					if len(a)+len(b) != pushed-released {
						t.Fatalf("trial %d: Ready offers %d slots with %d in ring", trial, len(a)+len(b), pushed-released)
					}
					k := rng.Intn(len(a) + len(b) + 1)
					for i := 0; i < k; i++ {
						it := *slotAt(a, b, i)
						if s.seq(it) != uint64(released) {
							t.Fatalf("trial %d: Ready holds seq %d, want %d", trial, s.seq(it), released)
						}
						s.release(it)
						released++
					}
					r.Release(k)
				}
				if got, want := refs(), int64(n-released); got != want {
					t.Fatalf("trial %d: %d refs live, want %d (pushed %d released %d)", trial, got, want, pushed, released)
				}
			}
		}
	})
}
