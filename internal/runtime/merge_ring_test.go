package runtime

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"streambalance/internal/spsc"
	"streambalance/internal/transport"
)

// TestMergeItemRing instantiates the generic ring for the merger's ingest
// lane slot type (internal/spsc's own suite checks the slot-independent
// properties) and pushes real ReceiveBatch output — tuples aliasing
// pool-backed blocks with live reference counts — through it with random pop
// interleaving, checking the conservation law the merger's exactly-once
// release depends on: at every step, the block's reference count equals the
// tuples still unreleased (in flight in the ring, in the consumer's hand, or
// not yet pushed), and they come out in FIFO order.
func TestMergeItemRing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		ts := make([]transport.Tuple, n)
		for seq := range ts {
			ts[seq] = transport.Tuple{Seq: uint64(seq), Payload: []byte("payload")}
		}
		batch, ref := decodePooled(t, ts)
		if got := ref.Refs(); got != int64(n) {
			t.Fatalf("trial %d: fresh batch holds %d refs, want %d", trial, got, n)
		}

		r := spsc.NewRing[mergeItem](2 + rng.Intn(8))
		pushed, released := 0, 0
		for released < n {
			if pushed < n && rng.Intn(2) == 0 {
				if r.Push(mergeItem{t: batch[pushed], ref: ref}) {
					pushed++
				}
			} else if it, ok := r.Pop(); ok {
				if it.t.Seq != uint64(released) {
					t.Fatalf("trial %d: popped seq %d, want %d (FIFO broken)", trial, it.t.Seq, released)
				}
				it.ref.Release()
				released++
			} else if pushed != released {
				t.Fatalf("trial %d: pop failed with %d in ring", trial, pushed-released)
			}
			// Conservation: unreleased references == tuples not yet
			// released, whether still unpushed or riding the ring.
			if got, want := ref.Refs(), int64(n-released); got != want {
				t.Fatalf("trial %d: %d refs live, want %d (pushed %d released %d)", trial, got, want, pushed, released)
			}
		}
	}
}

// decodePooled frames ts and decodes them back with one ReceiveBatch: real
// pooled output, one live reference per tuple on the returned BlockRef and
// no other — the receiver is run to EOF, where it gives up its own.
func decodePooled(t *testing.T, ts []transport.Tuple) ([]transport.Tuple, *transport.BlockRef) {
	t.Helper()
	wire, err := transport.AppendBatch(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	rc := transport.NewReceiver(bytes.NewReader(wire))
	batch, ref, err := rc.ReceiveBatch(nil, len(ts))
	if err != nil || len(batch) != len(ts) {
		t.Fatalf("decoded %d of %d tuples: %v", len(batch), len(ts), err)
	}
	if _, _, err := rc.ReceiveBatch(nil, 1); err != io.EOF {
		t.Fatalf("after the batch: %v, want io.EOF", err)
	}
	return batch, ref
}

// TestHeadIndexOrdering drives the release tournament's indexed min-heap
// with random key updates (including the empty sentinel) and checks min()
// against a brute-force scan with the merger's exact (key, id) tie-break.
func TestHeadIndexOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		h := newHeadIndex(n)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = headIndexEmpty
		}
		bruteMin := func() int {
			best, bestKey := -1, uint64(headIndexEmpty)
			for id, k := range keys {
				if k < bestKey || (k == bestKey && k != headIndexEmpty && (best == -1 || id < best)) {
					best, bestKey = id, k
				}
			}
			return best
		}
		for step := 0; step < 300; step++ {
			id := rng.Intn(n)
			var k uint64
			switch rng.Intn(4) {
			case 0:
				k = headIndexEmpty // stream drained
			default:
				k = uint64(rng.Intn(50))
			}
			keys[id] = k
			h.update(id, k)
			if got, want := h.min(), bruteMin(); got != want {
				t.Fatalf("trial %d step %d: min() = %d, want %d (keys %v)", trial, step, got, want, keys)
			}
			// second() is the lowest key of every stream but the root's.
			second := uint64(headIndexEmpty)
			for j, k := range keys {
				if j != h.ids[0] {
					second = min(second, k)
				}
			}
			if got := h.second(); got != second {
				t.Fatalf("trial %d step %d: second() = %d, want %d (keys %v)", trial, step, got, second, keys)
			}
		}
	}
}
