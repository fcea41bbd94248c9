package runtime

import (
	"encoding/binary"
	"math/bits"

	"streambalance/internal/transport"
)

// Combiner is a per-key partial aggregation the worker applies to its
// processed batch before forwarding to the merger: same-key results inside
// one received batch fold into the first occurrence (the carrier, which has
// the group's lowest sequence number), and the absorbed tuples' sequence
// numbers ride the carrier's Absorbed field so the merger can advance its
// watermark through them without a sink call. Under Zipf skew this shrinks
// merger ingest exactly where the skew concentrates it — the hottest keys.
//
// Correctness constraints (see DESIGN, "Keyed routing"):
//   - Only tuples with Key != 0 and Solo == false ever combine. The splitter
//     marks every recovery replay Solo, so groups form only from first
//     transmissions and stay disjoint across crashes.
//   - Combine owns acc (the combine stage copies the carrier's payload out of
//     shared transport memory before the first fold) and may mutate and
//     return it. next must be neither mutated nor retained; copy what it
//     needs.
type Combiner interface {
	Combine(key uint64, acc, next []byte) []byte
}

// CombinerFunc adapts a function to the Combiner interface.
type CombinerFunc func(key uint64, acc, next []byte) []byte

// Combine implements Combiner.
func (f CombinerFunc) Combine(key uint64, acc, next []byte) []byte {
	return f(key, acc, next)
}

// SumCombiner folds payloads as little-endian uint64 counters — the
// word-count shape of streaming aggregation. Payloads shorter than 8 bytes
// are read zero-extended; the folded payload is always at least 8 bytes with
// the running sum (mod 2^64) in its first 8.
func SumCombiner() Combiner {
	return CombinerFunc(func(_ uint64, acc, next []byte) []byte {
		sum := payloadUint(acc) + payloadUint(next)
		if len(acc) < 8 {
			acc = make([]byte, 8)
		}
		binary.LittleEndian.PutUint64(acc, sum)
		return acc
	})
}

// payloadUint reads a payload's leading little-endian uint64, zero-extending
// short payloads.
func payloadUint(p []byte) uint64 {
	if len(p) >= 8 {
		return binary.LittleEndian.Uint64(p)
	}
	var b [8]byte
	copy(b[:], p)
	return binary.LittleEndian.Uint64(b[:])
}

// combineBatch compacts results in place, folding each combinable tuple into
// its key's carrier (the key's first — lowest-seq — occurrence in the
// batch). Returns the shortened slice and how many tuples were absorbed.
// carriers is the caller's table, reused across batches, which finds a
// key's carrier in O(1) however many keys the batch holds. Carriers get a
// freshly allocated Absorbed buffer: it travels downstream by reference
// (through the in-proc ring or the frame encoder) and so cannot come from a
// reused scratch arena.
func combineBatch(c Combiner, carriers *carrierTable, results []transport.Tuple) ([]transport.Tuple, int) {
	carriers.reset(len(results))
	out := results[:0]
	absorbed := 0
	for i := range results {
		t := results[i]
		if t.Key == 0 || t.Solo {
			out = append(out, t)
			continue
		}
		slot := carriers.find(t.Key)
		if slot.at == 0 {
			out = append(out, t)
			slot.at = len(out)
			continue
		}
		car := &out[slot.at-1]
		if len(car.Absorbed) == 0 {
			// First fold for this carrier: its payload may still alias shared
			// upstream memory (the zero-copy transport moves payloads by
			// reference), so hand the combiner an owned copy it may mutate.
			car.Payload = append([]byte(nil), car.Payload...)
		}
		car.Payload = c.Combine(t.Key, car.Payload, t.Payload)
		car.Absorbed = transport.AppendAbsorbed(car.Absorbed, t.Seq)
		absorbed++
	}
	return out, absorbed
}

// carrierTable maps a key to its carrier in the batch being combined, by
// open addressing over a slot array reused across batches: a batch of n
// clears and uses a power of two of them, 2n to 4n.
type carrierTable struct {
	slots []carrierSlot
	shift uint8
}

type carrierSlot struct {
	key uint64
	at  int // 1 + the carrier's index in the batch's output; 0: free
}

// reset starts a batch of n tuples.
func (c *carrierTable) reset(n int) {
	b := bits.Len(uint(n)) + 1
	if cap(c.slots) < 1<<b {
		c.slots = make([]carrierSlot, 1<<b)
	}
	c.slots, c.shift = c.slots[:1<<b], uint8(64-b)
	clear(c.slots)
}

// find returns key's slot, which is free when the batch has no carrier for
// key yet.
func (c *carrierTable) find(key uint64) *carrierSlot {
	mask := len(c.slots) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> c.shift); ; i = (i + 1) & mask {
		if s := &c.slots[i]; s.at == 0 || s.key == key {
			s.key = key
			return s
		}
	}
}
