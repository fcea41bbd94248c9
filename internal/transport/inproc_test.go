package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"streambalance/internal/spsc"
)

// TestInprocItemRing instantiates the generic ring for the in-proc edge's slot
// type, Tuple (internal/spsc's own suite checks the slot-independent
// properties): FIFO across several wraps at varying occupancy, and the exact
// full/empty boundary.
func TestInprocItemRing(t *testing.T) {
	r := spsc.NewRing[Tuple](4)
	if r.Cap() != 4 {
		t.Fatalf("capacity = %d, want 4", r.Cap())
	}
	seq := uint64(0)
	// Push/pop across several wraps with varying occupancy.
	for round := 0; round < 10; round++ {
		n := 1 + round%4
		for i := 0; i < n; i++ {
			if !r.Push(Tuple{Seq: seq}) {
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
			if it.Seq != want {
				t.Fatalf("round %d: popped seq %d, want %d", round, it.Seq, want)
			}
		}
	}
	// Full ring rejects; drain empties.
	for i := 0; i < 4; i++ {
		if !r.Push(Tuple{Seq: uint64(i)}) {
			t.Fatalf("fill push %d failed", i)
		}
	}
	if r.Push(Tuple{}) {
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

// TestInprocPairRoundTrip: tuples arrive in order with their payload bytes
// by reference, not copied, and with no block reference — an in-proc edge
// carries GC-owned payloads only.
func TestInprocPairRoundTrip(t *testing.T) {
	tx, rx := InprocPair(8)
	const n = 100
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("p%d", i))
	}
	go func() {
		for i := 0; i < n; i++ {
			tuple := Tuple{Seq: uint64(i), Payload: payloads[i]}
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
			if &tu.Payload[0] != &payloads[next][0] {
				t.Fatalf("seq %d payload was copied crossing the edge", tu.Seq)
			}
			next++
		}
		if ref != nil {
			t.Fatal("in-proc ReceiveBatch returned a non-nil ref")
		}
	}
	if ref != nil {
		t.Fatal("in-proc ReceiveBatch returned a non-nil ref at EOF")
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

// raceReceiverClose runs one close-race trial: send delivers the n tuples
// 0..n-1 through a ring of the given capacity while the receiver takes a
// random prefix of them and closes. However the race resolves, send returns
// nil or ErrInprocClosed, the prefix ascends from 0 without a gap, and both
// goroutines return.
func raceReceiverClose(t *testing.T, trial, capacity, n int, send func(*InprocSender, []Tuple) error) {
	tx, rx := InprocPair(capacity)
	defer tx.Close()
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Seq: uint64(i)}
	}
	sent := make(chan error, 1)
	go func() { sent <- send(tx, ts) }()
	received := make(chan struct{})
	go func() {
		defer close(received)
		defer rx.Close()
		var buf []Tuple
		limit := rand.Intn(n)
		for consumed := 0; consumed < limit; consumed += len(buf) {
			var err error
			if buf, _, err = rx.ReceiveBatch(buf, 8); err != nil {
				t.Errorf("trial %d: receive err = %v", trial, err)
				return
			}
			for i, tu := range buf {
				if tu.Seq != uint64(consumed+i) {
					t.Errorf("trial %d: received seq %d, want %d", trial, tu.Seq, consumed+i)
					return
				}
			}
		}
	}()
	timeout := time.After(10 * time.Second)
	select {
	case err := <-sent:
		if err != nil && !errors.Is(err, ErrInprocClosed) {
			t.Errorf("trial %d: send err = %v, want nil or ErrInprocClosed", trial, err)
		}
	case <-timeout:
		t.Fatalf("trial %d: send never returned", trial)
	}
	select {
	case <-received:
	case <-timeout:
		t.Fatalf("trial %d: receiver never returned", trial)
	}
}

// TestInprocCloseRaceNoLeakedRefs races a receiver close against a sender
// delivering batches of one, so the close lands between two sends or while
// one is parked on the full ring; raceReceiverClose says what each trial
// checks. Nothing can leak: the edge holds no references, and both
// goroutines must return.
func TestInprocCloseRaceNoLeakedRefs(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		raceReceiverClose(t, trial, 4, 32, func(tx *InprocSender, ts []Tuple) error {
			for i := range ts {
				if err := tx.SendBatch(ts[i : i+1]); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// TestInprocCloseRacesMultiChunkDeliver is the close race with a batch far
// larger than the ring: one SendBatch of 32 tuples through a capacity-2 ring
// is sixteen publish-and-park chunks, and the receiver closes somewhere among
// them — before a chunk's closed check, between the check and the Publish,
// or after.
func TestInprocCloseRacesMultiChunkDeliver(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		raceReceiverClose(t, trial, 2, 32, (*InprocSender).SendBatch)
	}
}
