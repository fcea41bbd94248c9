package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streambalance/internal/transport"
)

func leU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// TestCombineBatchCarrierSelection checks that each key's first (lowest-seq)
// occurrence becomes the carrier, later same-key tuples fold into it in
// order, and distinct keys stay separate.
func TestCombineBatchCarrierSelection(t *testing.T) {
	in := []transport.Tuple{
		{Seq: 10, Key: 7, Payload: leU64(1)},
		{Seq: 11, Key: 9, Payload: leU64(100)},
		{Seq: 12, Key: 7, Payload: leU64(2)},
		{Seq: 13, Key: 7, Payload: leU64(4)},
		{Seq: 14, Key: 9, Payload: leU64(200)},
	}
	out, n := combineBatch(SumCombiner(), new(carrierTable), in)
	if n != 3 {
		t.Fatalf("absorbed %d tuples, want 3", n)
	}
	if len(out) != 2 {
		t.Fatalf("got %d carriers, want 2", len(out))
	}
	if out[0].Seq != 10 || payloadUint(out[0].Payload) != 7 {
		t.Fatalf("key-7 carrier = seq %d sum %d, want seq 10 sum 7", out[0].Seq, payloadUint(out[0].Payload))
	}
	if out[1].Seq != 11 || payloadUint(out[1].Payload) != 300 {
		t.Fatalf("key-9 carrier = seq %d sum %d, want seq 11 sum 300", out[1].Seq, payloadUint(out[1].Payload))
	}
	if c := out[0].AbsorbedCount(); c != 2 {
		t.Fatalf("key-7 carrier absorbed %d, want 2", c)
	}
	if s0, s1 := out[0].AbsorbedSeq(0), out[0].AbsorbedSeq(1); s0 != 12 || s1 != 13 {
		t.Fatalf("key-7 absorbed seqs = %d,%d, want 12,13", s0, s1)
	}
	if c := out[1].AbsorbedCount(); c != 1 || out[1].AbsorbedSeq(0) != 14 {
		t.Fatalf("key-9 absorbed = %v, want [14]", out[1].Absorbed)
	}
}

// TestCombineBatchPassthrough checks that unkeyed and Solo tuples never
// combine — in either role, carrier or absorbee.
func TestCombineBatchPassthrough(t *testing.T) {
	in := []transport.Tuple{
		{Seq: 0, Key: 0, Payload: leU64(1)},              // unkeyed
		{Seq: 1, Key: 5, Solo: true, Payload: leU64(2)},  // replay: no carrier
		{Seq: 2, Key: 5, Payload: leU64(4)},              // first combinable key-5
		{Seq: 3, Key: 0, Payload: leU64(8)},              // unkeyed again
		{Seq: 4, Key: 5, Solo: true, Payload: leU64(16)}, // replay: skips carrier
		{Seq: 5, Key: 5, Payload: leU64(32)},             // folds into seq 2
	}
	out, n := combineBatch(SumCombiner(), new(carrierTable), in)
	if n != 1 {
		t.Fatalf("absorbed %d, want 1", n)
	}
	wantSeqs := []uint64{0, 1, 2, 3, 4}
	if len(out) != len(wantSeqs) {
		t.Fatalf("got %d tuples out, want %d", len(out), len(wantSeqs))
	}
	for i, w := range wantSeqs {
		if out[i].Seq != w {
			t.Fatalf("out[%d].Seq = %d, want %d", i, out[i].Seq, w)
		}
	}
	if got := payloadUint(out[2].Payload); got != 36 {
		t.Fatalf("carrier sum = %d, want 36", got)
	}
	for i, tt := range out {
		if i != 2 && len(tt.Absorbed) != 0 {
			t.Fatalf("out[%d] (seq %d) unexpectedly absorbed tuples", i, tt.Seq)
		}
	}
}

// TestCombineBatchCopiesCarrierPayload checks the zero-copy-safety contract:
// the first fold must not mutate the carrier's original payload bytes, which
// may alias shared transport memory still visible to other readers.
func TestCombineBatchCopiesCarrierPayload(t *testing.T) {
	shared := leU64(5)
	in := []transport.Tuple{
		{Seq: 0, Key: 3, Payload: shared},
		{Seq: 1, Key: 3, Payload: leU64(6)},
	}
	out, n := combineBatch(SumCombiner(), new(carrierTable), in)
	if n != 1 || len(out) != 1 {
		t.Fatalf("combine = %d tuples, %d absorbed; want 1, 1", len(out), n)
	}
	if got := binary.LittleEndian.Uint64(shared); got != 5 {
		t.Fatalf("shared upstream payload mutated to %d, want untouched 5", got)
	}
	if got := payloadUint(out[0].Payload); got != 11 {
		t.Fatalf("carrier sum = %d, want 11", got)
	}
}

// combineBatchScan is combineBatch as it was before the carrier table: the
// carrier lookup scans the compacted output. The property test pins the
// table to it.
func combineBatchScan(c Combiner, results []transport.Tuple) ([]transport.Tuple, int) {
	out := results[:0]
	absorbed := 0
	for i := range results {
		t := results[i]
		if t.Key == 0 || t.Solo {
			out = append(out, t)
			continue
		}
		carrier := -1
		for j := range out {
			if out[j].Key == t.Key && !out[j].Solo {
				carrier = j
				break
			}
		}
		if carrier < 0 {
			out = append(out, t)
			continue
		}
		car := &out[carrier]
		if len(car.Absorbed) == 0 {
			car.Payload = append([]byte(nil), car.Payload...)
		}
		car.Payload = c.Combine(t.Key, car.Payload, t.Payload)
		car.Absorbed = transport.AppendAbsorbed(car.Absorbed, t.Seq)
		absorbed++
	}
	return out, absorbed
}

// TestCombineBatchMatchesScan runs combineBatch and the scanning reference
// over the same random batches — up to 4 096 tuples over 1..n keys, with
// unkeyed and Solo tuples mixed in — through one reused carrier table, and
// requires identical output: same carriers in the same order, same folded
// payloads, same absorbed sequences.
func TestCombineBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var carriers carrierTable
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4096)
		if trial%2 == 0 {
			n = 1 + rng.Intn(64)
		}
		keys := 1 + rng.Intn(n)
		in := make([]transport.Tuple, n)
		for i := range in {
			in[i] = transport.Tuple{Seq: uint64(i), Payload: leU64(uint64(rng.Intn(1000)))}
			switch r := rng.Intn(10); {
			case r == 0: // unkeyed
			case r == 1:
				in[i].Key, in[i].Solo = 1+uint64(rng.Intn(keys)), true
			default:
				in[i].Key = 1 + uint64(rng.Intn(keys))
			}
		}
		got, gotN := combineBatch(SumCombiner(), &carriers, append([]transport.Tuple(nil), in...))
		want, wantN := combineBatchScan(SumCombiner(), append([]transport.Tuple(nil), in...))
		if gotN != wantN || len(got) != len(want) {
			t.Fatalf("trial %d (n=%d keys=%d): %d out, %d absorbed; scan: %d out, %d absorbed",
				trial, n, keys, len(got), gotN, len(want), wantN)
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Seq != w.Seq || g.Key != w.Key || g.Solo != w.Solo ||
				!bytes.Equal(g.Payload, w.Payload) || !bytes.Equal(g.Absorbed, w.Absorbed) {
				t.Fatalf("trial %d (n=%d keys=%d): out[%d] = %+v, scan %+v", trial, n, keys, i, g, w)
			}
		}
	}
}

// BenchmarkCombineBatch prices one combine pass per tuple at an in-proc
// pass (64 tuples) and a TCP read's (1 024), over 8 keys and over all-distinct
// keys, through one reused carrier table.
func BenchmarkCombineBatch(b *testing.B) {
	for _, n := range []int{64, 1024} {
		for _, keys := range []int{8, n} {
			b.Run(fmt.Sprintf("n=%d/keys=%d", n, keys), func(b *testing.B) {
				in := make([]transport.Tuple, n)
				for i := range in {
					in[i] = transport.Tuple{Seq: uint64(i), Key: 1 + uint64(i%keys), Payload: leU64(1)}
				}
				work := make([]transport.Tuple, n)
				var carriers carrierTable
				c := SumCombiner()
				b.ResetTimer()
				for range b.N {
					copy(work, in)
					combineBatch(c, &carriers, work)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
			})
		}
	}
}

// TestSumCombinerShortPayloads checks zero-extension of payloads shorter than
// 8 bytes and that the result always carries the sum in 8 bytes.
func TestSumCombinerShortPayloads(t *testing.T) {
	c := SumCombiner()
	acc := c.Combine(1, []byte{3}, []byte{0x01, 0x01}) // 3 + 257
	if len(acc) < 8 {
		t.Fatalf("folded payload only %d bytes", len(acc))
	}
	if got := binary.LittleEndian.Uint64(acc); got != 260 {
		t.Fatalf("sum = %d, want 260", got)
	}
	acc = c.Combine(1, acc, nil) // + 0
	if got := binary.LittleEndian.Uint64(acc); got != 260 {
		t.Fatalf("sum after nil fold = %d, want 260", got)
	}
}

// TestMergerAbsorbedAdvance drives the merger directly over an in-proc edge:
// a combined carrier's absorbed sequences must advance the watermark without
// sink calls, count as CombinedReleased, and a later duplicate of an absorbed
// sequence must be dropped as a dup, not re-released.
func TestMergerAbsorbedAdvance(t *testing.T) {
	var released []uint64
	m, err := NewMerger(1, 16, func(tp transport.Tuple, conn int) {
		released = append(released, tp.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := transport.InprocPair(16)
	if err := m.AttachInproc(0, rx); err != nil {
		t.Fatal(err)
	}
	m.Start()

	// Carrier seq 0 absorbed seqs 1 and 2; then 3 and 4 released normally;
	// then a stale duplicate of absorbed seq 1 arrives and must be dropped.
	carrier := transport.Tuple{Seq: 0, Key: 9, Payload: leU64(42)}
	carrier.Absorbed = transport.AppendAbsorbed(carrier.Absorbed, 1)
	carrier.Absorbed = transport.AppendAbsorbed(carrier.Absorbed, 2)
	for _, tp := range []transport.Tuple{
		carrier,
		{Seq: 3, Key: 9, Payload: leU64(7)},
		{Seq: 1, Key: 9, Solo: true, Payload: leU64(99)},
		{Seq: 4, Key: 9, Payload: leU64(8)},
	} {
		if err := tx.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Watermark() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("watermark stuck at %d, want 5", m.Watermark())
		}
		time.Sleep(time.Millisecond)
	}
	tx.Close()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 3, 4}
	if len(released) != len(want) {
		t.Fatalf("released %v, want %v", released, want)
	}
	for i, w := range want {
		if released[i] != w {
			t.Fatalf("released %v, want %v", released, want)
		}
	}
	if got := m.CombinedReleased(); got != 2 {
		t.Fatalf("CombinedReleased = %d, want 2", got)
	}
	if m.Deduped() == 0 {
		t.Fatalf("stale duplicate of an absorbed seq was not counted as dedup")
	}
}
