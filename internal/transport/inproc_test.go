package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"streambalance/internal/spsc"
)

// TestInprocItemRing instantiates the generic ring for the in-proc edge's slot
// type (internal/spsc's own suite checks the slot-independent properties):
// FIFO across several wraps at varying occupancy, and the exact full/empty
// boundary.
func TestInprocItemRing(t *testing.T) {
	r := spsc.NewRing[inprocItem](4)
	if r.Cap() != 4 {
		t.Fatalf("capacity = %d, want 4", r.Cap())
	}
	seq := uint64(0)
	// Push/pop across several wraps with varying occupancy.
	for round := 0; round < 10; round++ {
		n := 1 + round%4
		for i := 0; i < n; i++ {
			if !r.Push(inprocItem{t: Tuple{Seq: seq}}) {
				t.Fatalf("round %d: push %d failed with len %d", round, i, r.Len())
			}
			seq++
		}
		for i := 0; i < n; i++ {
			it, ok := r.Pop()
			if !ok {
				t.Fatalf("round %d: pop %d failed", round, i)
			}
			want := seq - uint64(n) + uint64(i)
			if it.t.Seq != want {
				t.Fatalf("round %d: popped seq %d, want %d", round, it.t.Seq, want)
			}
		}
	}
	// Full ring rejects; drain empties.
	for i := 0; i < 4; i++ {
		if !r.Push(inprocItem{t: Tuple{Seq: uint64(i)}}) {
			t.Fatalf("fill push %d failed", i)
		}
	}
	if r.Push(inprocItem{}) {
		t.Fatal("push into full ring succeeded")
	}
	if !r.Full() {
		t.Fatal("full() = false on full ring")
	}
	for i := 0; i < 4; i++ {
		if _, ok := r.Pop(); !ok {
			t.Fatalf("drain pop %d failed", i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestInprocPairCapacityDefault(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultInprocRing}, {-5, DefaultInprocRing}, {1, 2}, {5, 8},
	} {
		if tx, _ := InprocPair(tc.in); tx.Capacity() != tc.want {
			t.Errorf("InprocPair(%d) capacity = %d, want %d", tc.in, tx.Capacity(), tc.want)
		}
	}
}

func TestInprocPairRoundTrip(t *testing.T) {
	tx, rx := InprocPair(8)
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			tuple := Tuple{Seq: uint64(i), Payload: []byte(fmt.Sprintf("p%d", i))}
			var err error
			if i%3 == 0 {
				err = tx.Send(tuple)
			} else {
				err = tx.SendBatch([]Tuple{tuple})
			}
			if err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		tx.Close()
	}()

	var buf []Tuple
	var ref *BlockRef
	var err error
	next := uint64(0)
	for {
		buf, ref, err = rx.ReceiveBatch(buf, 7)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		for _, tu := range buf {
			if tu.Seq != next {
				t.Fatalf("out of order: got seq %d, want %d", tu.Seq, next)
			}
			if want := fmt.Sprintf("p%d", tu.Seq); string(tu.Payload) != want {
				t.Fatalf("seq %d payload %q, want %q", tu.Seq, tu.Payload, want)
			}
			next++
		}
		// GC-owned sends must arrive refless.
		if ref != nil {
			t.Fatal("ReceiveBatch returned a ref for refless tuples")
		}
	}
	if next != n {
		t.Fatalf("received %d tuples, want %d", next, n)
	}
	if tx.Sent() != n {
		t.Fatalf("Sent() = %d, want %d", tx.Sent(), n)
	}
}

// TestInprocQueueFlushBatching: one SendBatch is one flush, delivered whole
// with one publish; an empty batch is no flush at all.
func TestInprocQueueFlushBatching(t *testing.T) {
	tx, rx := InprocPair(64)
	if err := tx.SendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if tx.Flushes() != 0 || rx.Len() != 0 {
		t.Fatalf("empty batch counted: flushes=%d delivered=%d", tx.Flushes(), rx.Len())
	}
	ts := make([]Tuple, 5)
	for i := range ts {
		ts[i] = Tuple{Seq: uint64(i)}
	}
	if err := tx.SendBatch(ts); err != nil {
		t.Fatalf("send batch: %v", err)
	}
	if n := rx.Len(); n != 5 {
		t.Fatalf("%d tuples delivered by one batch, want 5", n)
	}
	got, ref, err := rx.ReceiveBatch(nil, 10)
	if err != nil || len(got) != 5 || ref != nil {
		t.Fatalf("receive: got %d tuples, ref %v, err %v", len(got), ref, err)
	}
	for i, tu := range got {
		if tu.Seq != uint64(i) {
			t.Fatalf("tuple %d carried seq %d", i, tu.Seq)
		}
	}
	if tx.Flushes() != 1 || tx.Sent() != 5 {
		t.Fatalf("counters: flushes=%d sent=%d", tx.Flushes(), tx.Sent())
	}
}

func TestInprocOversizedTupleFailsAtomically(t *testing.T) {
	tx, rx := InprocPair(8)
	big := Tuple{Seq: 1, Payload: make([]byte, MaxFrameSize)}
	if err := tx.Send(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send oversized: err = %v, want ErrFrameTooLarge", err)
	}
	batch := []Tuple{{Seq: 2}, big, {Seq: 3}}
	if err := tx.SendBatch(batch); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("SendBatch oversized: err = %v", err)
	}
	// Atomic failure: nothing from the batch was delivered (as on TCP), and
	// nothing was counted.
	if n := rx.Len(); n != 0 {
		t.Fatalf("failed batch leaked %d tuples", n)
	}
	if tx.Sent() != 0 || tx.Flushes() != 0 {
		t.Fatalf("failed batch counted: sent=%d flushes=%d", tx.Sent(), tx.Flushes())
	}
	ref := blockRefPool.Get().(*BlockRef)
	ref.refs.Store(int64(len(batch)))
	if err := tx.SendBatchOwned(batch, ref); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("SendBatchOwned oversized: err = %v", err)
	}
	// All references consumed on the failure path (over-release would panic).
	if got := ref.Refs(); got != 0 {
		t.Fatalf("failed SendBatchOwned left %d refs", got)
	}
}

// TestInprocOwnershipTransfer pins the zero-copy contract: payload bytes
// cross the edge by reference (no copy), and the upstream BlockRef is
// released only when the consumer releases the batch it arrived in.
func TestInprocOwnershipTransfer(t *testing.T) {
	tx, rx := InprocPair(16)

	// Upstream ref with one reference per tuple, plus one extra held by the
	// test so we can observe the count instead of racing the recycle.
	const n = 6
	up := blockRefPool.Get().(*BlockRef)
	up.refs.Store(n + 1)
	payload := []byte("shared-block-payload")
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Seq: uint64(i), Payload: payload}
	}
	if err := tx.SendBatchOwned(ts, up); err != nil {
		t.Fatalf("SendBatchOwned: %v", err)
	}
	if got := up.Refs(); got != n+1 {
		t.Fatalf("refs after delivery = %d, want %d (ownership transferred, not released)", got, n+1)
	}

	got, ref, err := rx.ReceiveBatch(nil, n)
	if err != nil {
		t.Fatalf("ReceiveBatch: %v", err)
	}
	if len(got) != n {
		t.Fatalf("received %d tuples, want %d", len(got), n)
	}
	if ref == nil {
		t.Fatal("batch of owned tuples arrived with nil ref")
	}
	if &got[0].Payload[0] != &payload[0] {
		t.Fatal("payload was copied crossing the in-proc edge")
	}
	// Per-tuple release: upstream stays alive until the last drop.
	for i := 0; i < n; i++ {
		if got := up.Refs(); got != n+1 {
			t.Fatalf("upstream released early at i=%d: refs=%d", i, got)
		}
		ref.Release()
	}
	if got := up.Refs(); got != 1 {
		t.Fatalf("refs after full release = %d, want 1 (test's own)", got)
	}
	up.Release()
}

// TestInprocMixedRefAndReflessBatch covers aggregation when only some popped
// tuples carried upstream references.
func TestInprocMixedRefAndReflessBatch(t *testing.T) {
	tx, rx := InprocPair(16)
	if err := tx.Send(Tuple{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	up := blockRefPool.Get().(*BlockRef)
	up.refs.Store(2 + 1)
	if err := tx.SendBatchOwned([]Tuple{{Seq: 1}, {Seq: 2}}, up); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(Tuple{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	got, ref, err := rx.ReceiveBatch(nil, 8)
	if err != nil || len(got) != 4 {
		t.Fatalf("got %d tuples, err %v", len(got), err)
	}
	if ref == nil {
		t.Fatal("mixed batch should carry a ref (two tuples are pooled)")
	}
	if got := ref.Refs(); got != 4 {
		t.Fatalf("batch ref holds %d refs, want one per tuple = 4", got)
	}
	ref.ReleaseN(4)
	if got := up.Refs(); got != 1 {
		t.Fatalf("upstream refs after batch release = %d, want 1", got)
	}
	up.Release()
}

func TestInprocSenderBlocksAndAccounts(t *testing.T) {
	tx, rx := InprocPair(2)
	for i := 0; i < 2; i++ {
		if err := tx.Send(Tuple{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- tx.Send(Tuple{Seq: 2}) // ring full: must park
	}()
	select {
	case err := <-done:
		t.Fatalf("send into full ring returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Drain one slot: the parked send completes.
	if got, _, err := rx.ReceiveBatch(nil, 1); err != nil || len(got) != 1 {
		t.Fatalf("receive: %d tuples, err %v", len(got), err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unparked send failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send still parked after slot freed")
	}
	if tx.BlockEvents() == 0 {
		t.Fatal("no block events recorded for a full-ring park")
	}
	if tx.TotalBlocking() < 40*time.Millisecond {
		t.Fatalf("cumulative blocking %v, want >= ~50ms park", tx.TotalBlocking())
	}
}

func TestInprocReceiverBlocksUntilData(t *testing.T) {
	tx, rx := InprocPair(8)
	got := make(chan int, 1)
	go func() {
		ts, _, err := rx.ReceiveBatch(nil, 4)
		if err != nil {
			got <- -1
			return
		}
		got <- len(ts)
	}()
	select {
	case n := <-got:
		t.Fatalf("ReceiveBatch returned %d before any send", n)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx.Send(Tuple{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("ReceiveBatch returned %d tuples, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReceiveBatch still parked after send")
	}
}

func TestInprocSenderCloseGivesEOFAfterDrain(t *testing.T) {
	tx, rx := InprocPair(8)
	for i := 0; i < 3; i++ {
		if err := tx.Send(Tuple{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	// Buffered tuples still arrive.
	got, _, err := rx.ReceiveBatch(nil, 10)
	if err != nil || len(got) != 3 {
		t.Fatalf("post-close drain: %d tuples, err %v", len(got), err)
	}
	if _, _, err := rx.ReceiveBatch(nil, 10); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain err = %v, want io.EOF", err)
	}
	// Sends after local close fail.
	if err := tx.Send(Tuple{Seq: 9}); !errors.Is(err, ErrInprocClosed) {
		t.Fatalf("send after close err = %v", err)
	}
}

func TestInprocSenderCloseUnblocksParkedReceiver(t *testing.T) {
	tx, rx := InprocPair(8)
	errc := make(chan error, 1)
	go func() {
		_, _, err := rx.ReceiveBatch(nil, 4)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	tx.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("parked receive err = %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver still parked after sender close")
	}
}

func TestInprocReceiverCloseUnblocksParkedSender(t *testing.T) {
	tx, rx := InprocPair(2)
	for i := 0; i < 2; i++ {
		if err := tx.Send(Tuple{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- tx.Send(Tuple{Seq: 2}) }()
	time.Sleep(20 * time.Millisecond)
	rx.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrInprocClosed) {
			t.Fatalf("parked send err = %v, want ErrInprocClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender still parked after receiver close")
	}
	// Future receives on the closed receiver fail too.
	if _, _, err := rx.ReceiveBatch(nil, 4); !errors.Is(err, ErrInprocClosed) {
		t.Fatalf("receive after close err = %v", err)
	}
}

// TestInprocReceiverCloseReleasesBufferedRefs pins the teardown sweep: block
// references stranded in the ring by a receiver close are released, not
// leaked.
func TestInprocReceiverCloseReleasesBufferedRefs(t *testing.T) {
	tx, rx := InprocPair(16)
	const n = 5
	up := blockRefPool.Get().(*BlockRef)
	up.refs.Store(n + 1)
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Seq: uint64(i)}
	}
	if err := tx.SendBatchOwned(ts, up); err != nil {
		t.Fatal(err)
	}
	if got := up.Refs(); got != n+1 {
		t.Fatalf("refs before close = %d", got)
	}
	rx.Close()
	if got := up.Refs(); got != 1 {
		t.Fatalf("refs after receiver close = %d, want 1 (sweep released %d)", got, n)
	}
	up.Release()
}

// TestInprocCloseRaceNoLeakedRefs hammers the push/close race: a sender
// delivering owned batches while the receiver closes concurrently. Every
// reference must be consumed exactly once — whether the tuple was consumed,
// swept by the receiver's close, or bounced at the sender.
func TestInprocCloseRaceNoLeakedRefs(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		tx, rx := InprocPair(4)
		const n = 32
		up := blockRefPool.Get().(*BlockRef)
		// One extra test-held reference keeps the count observable.
		up.refs.Store(n + 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]Tuple, 0, 8)
			for i := 0; i < n; i++ {
				var err error
				buf = buf[:0]
				buf = append(buf, Tuple{Seq: uint64(i)})
				err = tx.SendBatchOwned(buf, up)
				if err != nil {
					// Remaining references are ours to drop: the failed
					// call consumed only its own batch's references.
					up.ReleaseN(n - 1 - i)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			var buf []Tuple
			var ref *BlockRef
			var err error
			consumed := 0
			limit := rand.Intn(n)
			for consumed < limit {
				buf, ref, err = rx.ReceiveBatch(buf, 8)
				if err != nil {
					return
				}
				consumed += len(buf)
				ref.ReleaseN(len(buf))
			}
			rx.Close()
		}()
		wg.Wait()
		// However the race resolved, exactly the test's reference remains.
		if got := up.Refs(); got != 1 {
			t.Fatalf("trial %d: refs = %d, want 1", trial, got)
		}
		up.Release()
		tx.Close()
	}
}

func TestInprocStallTimeout(t *testing.T) {
	tx, rx := InprocPair(2)
	tx.SetStallTimeout(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := tx.Send(Tuple{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	err := tx.Send(Tuple{Seq: 2})
	if err == nil {
		t.Fatal("send into never-drained ring succeeded")
	}
	if !errors.Is(err, errInprocStall) {
		t.Fatalf("err = %v, want stall", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall took %v, bound was 60ms", elapsed)
	}
	// A healthy peer after the stall keeps working: stall state must not
	// leak into the next delivery.
	go func() {
		time.Sleep(10 * time.Millisecond)
		rx.ReceiveBatch(nil, 4)
	}()
	if err := tx.Send(Tuple{Seq: 3}); err != nil {
		t.Fatalf("send after drain failed: %v", err)
	}
	rx.Close()
}

func TestInprocStallSparesHealthyPeer(t *testing.T) {
	tx, rx := InprocPair(2)
	tx.SetStallTimeout(500 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 64 && err == nil; i++ {
			err = tx.Send(Tuple{Seq: uint64(i)})
		}
		done <- err
	}()
	// Slow but live consumer: each individual park stays under the bound.
	var got int
	var buf []Tuple
	for got < 64 {
		time.Sleep(5 * time.Millisecond)
		buf, _, _ = rx.ReceiveBatch(buf, 4)
		got += len(buf)
	}
	if err := <-done; err != nil {
		t.Fatalf("healthy-but-slow peer tripped the stall bound: %v", err)
	}
}

func TestInprocConcurrentStress(t *testing.T) {
	capacities := []int{1, 2, 8, 64}
	for _, capacity := range capacities {
		capacity := capacity
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			tx, rx := InprocPair(capacity)
			const n = 5000
			go func() {
				batch := make([]Tuple, 0, 8)
				seq := uint64(0)
				for seq < n {
					batch = batch[:0]
					sz := 1 + int(seq%7)
					for i := 0; i < sz && seq < n; i++ {
						batch = append(batch, Tuple{Seq: seq})
						seq++
					}
					if err := tx.SendBatch(batch); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
				tx.Close()
			}()
			var buf []Tuple
			next := uint64(0)
			for {
				var err error
				buf, _, err = rx.ReceiveBatch(buf, 1+int(next%9))
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("receive: %v", err)
				}
				for _, tu := range buf {
					if tu.Seq != next {
						t.Fatalf("out of order: got %d, want %d", tu.Seq, next)
					}
					next++
				}
			}
			if next != n {
				t.Fatalf("received %d, want %d", next, n)
			}
		})
	}
}

// TestInprocSteadyStateAllocs pins the zero-copy claim where it is
// measurable deterministically: a send/receive cycle in steady state (buffers
// warmed) allocates nothing on either side.
func TestInprocSteadyStateAllocs(t *testing.T) {
	tx, rx := InprocPair(256)
	payload := make([]byte, 64)
	batch := make([]Tuple, 16)
	var buf []Tuple
	seq := uint64(0)
	cycle := func() {
		for i := range batch {
			batch[i] = Tuple{Seq: seq, Payload: payload}
			seq++
		}
		if err := tx.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		drained := 0
		for drained < len(batch) {
			var err error
			buf, _, err = rx.ReceiveBatch(buf, 16)
			if err != nil {
				t.Fatal(err)
			}
			drained += len(buf)
		}
	}
	// Warm-up grows the staging slices once.
	for i := 0; i < 10; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state send/receive cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestInprocCloseIdempotent(t *testing.T) {
	tx, rx := InprocPair(4)
	for i := 0; i < 3; i++ {
		if err := tx.Close(); err != nil {
			t.Fatalf("tx.Close #%d: %v", i, err)
		}
		if err := rx.Close(); err != nil {
			t.Fatalf("rx.Close #%d: %v", i, err)
		}
	}
}

// TestInprocCloseRacesMultiChunkDeliver is the close race with a batch far
// larger than the ring: one SendBatchOwned of 32 tuples through a capacity-2
// ring is sixteen publish-and-park chunks, and the receiver closes somewhere
// among them. Whichever chunk the close lands in — before its closed check,
// between the check and the Publish, or after — every reference is consumed
// exactly once: by the consumer, by a teardown sweep, or bounced at the
// sender, with nothing left in the ring for a later Close to find.
func TestInprocCloseRacesMultiChunkDeliver(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		tx, rx := InprocPair(2)
		const n = 32
		up := blockRefPool.Get().(*BlockRef)
		// One extra test-held reference keeps the count observable.
		up.refs.Store(n + 1)
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{Seq: uint64(i)}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Delivered or not, the call consumes all n references.
			if err := tx.SendBatchOwned(ts, up); err != nil && !errors.Is(err, ErrInprocClosed) {
				t.Errorf("trial %d: send err = %v", trial, err)
			}
		}()
		go func() {
			defer wg.Done()
			var buf []Tuple
			limit := rand.Intn(n)
			for consumed := 0; consumed < limit; {
				var ref *BlockRef
				var err error
				buf, ref, err = rx.ReceiveBatch(buf, 8)
				if err != nil {
					t.Errorf("trial %d: receive err = %v", trial, err)
					break
				}
				for i, tu := range buf {
					if tu.Seq != uint64(consumed+i) {
						t.Errorf("trial %d: received seq %d, want %d", trial, tu.Seq, consumed+i)
					}
				}
				consumed += len(buf)
				ref.ReleaseN(len(buf))
			}
			rx.Close()
		}()
		wg.Wait()
		if got := up.Refs(); got != 1 {
			t.Fatalf("trial %d: refs = %d, want 1", trial, got)
		}
		if got := rx.Len(); got != 0 {
			t.Fatalf("trial %d: %d tuples stranded in the ring", trial, got)
		}
		up.Release()
		tx.Close()
	}
}
