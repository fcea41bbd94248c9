package runtime

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"streambalance/internal/transport"
)

// countingSender is a BatchSender that records each forward: its size and
// every sequence number it covers (carriers and absorbed). Given the pass's
// block reference, it checks that the forwarded tuples' references are all
// still held when the forward is made: the worker releases them only once
// SendBatch has returned.
type countingSender struct {
	transport.BatchSender
	t        *testing.T
	ref      *transport.BlockRef
	forwards [][]uint64
}

func (s *countingSender) SendBatch(ts []transport.Tuple) error {
	if s.ref != nil && s.ref.Refs() < int64(len(ts)) {
		s.t.Errorf("forward of %d tuples with %d references left on their block", len(ts), s.ref.Refs())
	}
	var seqs []uint64
	for _, tp := range ts {
		seqs = append(seqs, tp.Seq)
		for i := range tp.AbsorbedCount() {
			seqs = append(seqs, tp.AbsorbedSeq(i))
		}
	}
	s.forwards = append(s.forwards, seqs)
	return nil
}

func (s *countingSender) Close() error { return nil }

// keyedFrames returns n tuples with sequence numbers 0..n-1 over three keys.
func keyedFrames(n int) []transport.Tuple {
	ts := make([]transport.Tuple, n)
	for i := range ts {
		seq := uint64(i)
		ts[i] = transport.Tuple{Seq: seq, Key: 1 + seq%3, Payload: leU64(seq)}
	}
	return ts
}

// TestWorkerForwardsOneReadPerWrite: 512 frames that arrive in one read are
// one pass and leave in one forward of 512.
func TestWorkerForwardsOneReadPerWrite(t *testing.T) {
	const n = 512
	wire, err := transport.AppendBatch(nil, keyedFrames(n))
	if err != nil {
		t.Fatal(err)
	}
	tx := &countingSender{t: t}
	p := &pe{operator: Identity(), done: make(chan struct{})}
	var frozen time.Time
	p.now = func() time.Time { return frozen }
	if err := p.serve(transport.NewReceiver(bytes.NewReader(wire)), tx); err != nil {
		t.Fatal(err)
	}
	if len(tx.forwards) != 1 || len(tx.forwards[0]) != n {
		sizes := make([]int, len(tx.forwards))
		for i, f := range tx.forwards {
			sizes[i] = len(f)
		}
		t.Fatalf("forwards of %v tuples, want one of %d", sizes, n)
	}
	for i, seq := range tx.forwards[0] {
		if seq != uint64(i) {
			t.Fatalf("forwarded seq %d at position %d", seq, i)
		}
	}
}

// oneRead is a BatchReceiver that delivers one prepared batch and then EOF.
type oneRead struct {
	batch []transport.Tuple
	ref   *transport.BlockRef
}

func (r *oneRead) ReceiveBatch(dst []transport.Tuple, _ int) ([]transport.Tuple, *transport.BlockRef, error) {
	if r.batch == nil {
		return dst[:0], nil, io.EOF
	}
	dst = append(dst[:0], r.batch...)
	r.batch = nil
	return dst, r.ref, nil
}

func (r *oneRead) Ack(uint64) error { return nil }

func (r *oneRead) Close() error { return nil }

// TestWorkerForwardHold steps the worker's clock by forwardHold on every
// reading, so the hold expires after every chunk: a 512-tuple pass must leave
// as eight chunk-aligned forwards, and — with a combiner folding within each
// forward — every tuple's block reference is consumed exactly once. The pass
// is decoded with one tuple more than it serves, so the test holds the last
// reference and "each consumed once" reads as Refs() == 1.
func TestWorkerForwardHold(t *testing.T) {
	const n, chunk = 512, transport.DefaultRecvBatch
	for _, combine := range []bool{false, true} {
		t.Run(fmt.Sprintf("combine=%v", combine), func(t *testing.T) {
			batch, ref := decodePooled(t, keyedFrames(n+1))
			tx := &countingSender{t: t, ref: ref}
			p := &pe{operator: Identity(), done: make(chan struct{})}
			if combine {
				p.SetCombiner(SumCombiner())
			}
			var clock time.Time
			p.now = func() time.Time {
				clock = clock.Add(forwardHold)
				return clock
			}
			if err := p.serve(&oneRead{batch: batch[:n], ref: ref}, tx); err != nil {
				t.Fatal(err)
			}
			if len(tx.forwards) != n/chunk {
				t.Fatalf("%d forwards, want %d", len(tx.forwards), n/chunk)
			}
			for k, seqs := range tx.forwards {
				if len(seqs) != chunk {
					t.Fatalf("forward %d covers %d seqs, want %d", k, len(seqs), chunk)
				}
				lo := uint64(k * chunk)
				for _, seq := range seqs {
					if seq < lo || seq >= lo+chunk {
						t.Fatalf("forward %d carries seq %d, outside its chunk [%d, %d)", k, seq, lo, lo+chunk)
					}
				}
			}
			if got := ref.Refs(); got != 1 {
				t.Fatalf("%d references left, want only the test's own", got)
			}
			if combine && p.CombinerHits() != uint64(n-3*n/chunk) {
				t.Fatalf("combiner absorbed %d, want %d (three carriers per forward)", p.CombinerHits(), n-3*n/chunk)
			}
			ref.Release()
		})
	}
}
