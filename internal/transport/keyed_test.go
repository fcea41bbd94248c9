package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
)

func absorbedOf(seqs ...uint64) []byte {
	var b []byte
	for _, s := range seqs {
		b = AppendAbsorbed(b, s)
	}
	return b
}

func tuplesEqual(a, b Tuple) bool {
	return a.Seq == b.Seq && a.Key == b.Key && a.Solo == b.Solo &&
		bytes.Equal(a.Absorbed, b.Absorbed) && bytes.Equal(a.Payload, b.Payload)
}

func TestKeyedFrameRoundTrip(t *testing.T) {
	tests := []struct {
		name  string
		tuple Tuple
	}{
		{"keyed", Tuple{Seq: 3, Key: 7, Payload: []byte("k")}},
		{"keyed empty payload", Tuple{Seq: 3, Key: 7}},
		{"keyed solo", Tuple{Seq: 9, Key: 1, Solo: true, Payload: []byte("replay")}},
		{"keyed max key", Tuple{Seq: 1, Key: ^uint64(0), Payload: []byte("x")}},
		{"combined", Tuple{Seq: 10, Key: 4, Absorbed: absorbedOf(12, 15, 99), Payload: []byte("sum")}},
		{"combined no payload", Tuple{Seq: 10, Key: 4, Absorbed: absorbedOf(11)}},
		{"combined solo", Tuple{Seq: 2, Key: 5, Solo: true, Absorbed: absorbedOf(6), Payload: []byte("c")}},
		{"combined large payload", Tuple{Seq: 8, Key: 2, Absorbed: absorbedOf(20, 21), Payload: bytes.Repeat([]byte("z"), 100_000)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame, err := AppendFrame(nil, tt.tuple)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) != FrameLen(tt.tuple) {
				t.Fatalf("frame length %d, want %d", len(frame), FrameLen(tt.tuple))
			}
			got, err := recvOne(NewReceiver(bytes.NewReader(frame)))
			if err != nil {
				t.Fatal(err)
			}
			if !tuplesEqual(got, tt.tuple) {
				t.Fatalf("round trip changed tuple: got %+v want %+v", got, tt.tuple)
			}
			if got.AbsorbedCount() != tt.tuple.AbsorbedCount() {
				t.Fatalf("absorbed count %d, want %d", got.AbsorbedCount(), tt.tuple.AbsorbedCount())
			}
			for i := 0; i < got.AbsorbedCount(); i++ {
				if got.AbsorbedSeq(i) != tt.tuple.AbsorbedSeq(i) {
					t.Fatalf("absorbed seq %d = %d, want %d", i, got.AbsorbedSeq(i), tt.tuple.AbsorbedSeq(i))
				}
			}
		})
	}
}

// TestUnkeyedFrameBytesUnchanged pins the wire-compatibility guarantee: a
// tuple with Key == 0 must encode byte-identically to the pre-keyed format
// (uint32 length with no flag bits, uint64 seq, payload).
func TestUnkeyedFrameBytesUnchanged(t *testing.T) {
	payload := []byte("legacy")
	frame, err := AppendFrame(nil, Tuple{Seq: 77, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	want = binary.LittleEndian.AppendUint32(want, uint32(8+len(payload)))
	want = binary.LittleEndian.AppendUint64(want, 77)
	want = append(want, payload...)
	if !bytes.Equal(frame, want) {
		t.Fatalf("unkeyed frame bytes changed:\n got %x\nwant %x", frame, want)
	}
}

func TestKeyedFrameRoundTripProperty(t *testing.T) {
	prop := func(seq, key uint64, solo bool, absorbed []uint64, payload []byte) bool {
		if key == 0 {
			key = 1
		}
		in := Tuple{Seq: seq, Key: key, Solo: solo, Payload: payload}
		for _, a := range absorbed {
			in.Absorbed = AppendAbsorbed(in.Absorbed, a)
		}
		frame, err := AppendFrame(nil, in)
		if err != nil {
			return false
		}
		got, err := recvOne(NewReceiver(bytes.NewReader(frame)))
		if err != nil {
			return false
		}
		return tuplesEqual(got, in)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedBatchMixed interleaves keyed, combined and legacy frames on one
// stream and decodes them through the batched path, proving receivers need no
// per-frame mode switching.
func TestKeyedBatchMixed(t *testing.T) {
	ts := []Tuple{
		{Seq: 0, Payload: []byte("plain")},
		{Seq: 1, Key: 9, Payload: []byte("keyed")},
		{Seq: 2, Key: 9, Absorbed: absorbedOf(3, 4), Payload: []byte("combined")},
		{Seq: 5, Key: 2, Solo: true, Payload: []byte("solo")},
		{Seq: 6},
	}
	wire, err := AppendBatch(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(bytes.NewReader(wire))
	got, ref, err := rc.ReceiveBatch(nil, len(ts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(ts))
	}
	for i := range ts {
		if !tuplesEqual(got[i], ts[i]) {
			t.Fatalf("tuple %d: got %+v want %+v", i, got[i], ts[i])
		}
	}
	ref.ReleaseN(len(got))
}

func TestKeyedEncodeErrors(t *testing.T) {
	if _, err := AppendFrame(nil, Tuple{Seq: 1, Absorbed: absorbedOf(2)}); err == nil {
		t.Fatal("absorbed seqs on an unkeyed tuple accepted")
	}
	if _, err := AppendFrame(nil, Tuple{Seq: 1, Key: 3, Absorbed: []byte{1, 2, 3}}); err == nil {
		t.Fatal("misaligned absorbed buffer accepted")
	}
	if err := checkFrameable(&Tuple{Seq: 1, Absorbed: absorbedOf(2)}); err == nil {
		t.Fatal("checkFrameable accepted absorbed seqs on an unkeyed tuple")
	}
	// The key and absorbed fields count against the frame bound.
	over := Tuple{Key: 1, Absorbed: absorbedOf(1, 2), Payload: make([]byte, MaxFrameSize-8-8-4-16+1)}
	if _, err := AppendFrame(nil, over); err == nil {
		t.Fatal("keyed frame exceeding MaxFrameSize accepted")
	}
	if err := checkFrameable(&over); err == nil {
		t.Fatal("checkFrameable accepted oversized keyed frame")
	}
}

func TestKeyedCorruptFrames(t *testing.T) {
	mk := func(word uint32, rest ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, word)
		return append(b, rest...)
	}
	seq := make([]byte, 8)
	tests := []struct {
		name string
		data []byte
	}{
		{"combined flag without keyed", mk(flagCombined|12, append(seq, 0, 0, 0, 0)...)},
		{"solo flag without keyed", mk(flagSolo|8, seq...)},
		{"keyed body too small", mk(flagKeyed|8, seq...)},
		{"combined body too small", mk(flagKeyed|flagCombined|16, append(seq, make([]byte, 8)...)...)},
		{"combined count zero", mk(flagKeyed|flagCombined|20, append(seq, make([]byte, 12)...)...)},
		{"combined count exceeds body", func() []byte {
			b := binary.LittleEndian.AppendUint32(nil, flagKeyed|flagCombined|28)
			b = binary.LittleEndian.AppendUint64(b, 1)     // seq
			b = binary.LittleEndian.AppendUint64(b, 2)     // key
			b = binary.LittleEndian.AppendUint32(b, 1<<20) // count far beyond body
			return append(b, make([]byte, 8)...)
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := recvOne(NewReceiver(bytes.NewReader(tt.data))); err == nil {
				t.Fatal("corrupt keyed frame accepted (blocking path)")
			}
			// Behind a valid frame the corrupt one is met by the buffered
			// drain, which defers its error to the next call.
			good, err := AppendFrame(nil, Tuple{Seq: 9})
			if err != nil {
				t.Fatal(err)
			}
			rc := NewReceiver(bytes.NewReader(append(good, tt.data...)))
			batch, ref, err := rc.ReceiveBatch(nil, 8)
			if err != nil || len(batch) != 1 {
				t.Fatalf("leading valid frame: %d tuples, err %v", len(batch), err)
			}
			ref.Release()
			if _, err := recvOne(rc); err == nil || err == io.EOF {
				t.Fatal("corrupt keyed frame accepted (buffered path)")
			}
		})
	}
}

// repeatReader loops one encoded stream forever, so alloc measurements can
// run a warm receiver indefinitely.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestKeyedReceiveBatchAllocFree proves the steady-state keyed receive path
// allocates nothing: payload and absorbed bytes alias the pooled block the
// stream was read into, and the batch slice and the block recycle.
func TestKeyedReceiveBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	var wire []byte
	var err error
	for i := uint64(0); i < 64; i++ {
		tu := Tuple{Seq: i, Key: i%7 + 1, Payload: []byte("payload-bytes")}
		if i%8 == 0 {
			tu.Absorbed = absorbedOf(i+100, i+101)
		}
		wire, err = AppendFrame(wire, tu)
		if err != nil {
			t.Fatal(err)
		}
	}
	rc := NewReceiver(&repeatReader{data: wire})
	var batch []Tuple
	var ref *BlockRef
	// Warm the pools and the batch slice.
	for i := 0; i < 32; i++ {
		batch, ref, err = rc.ReceiveBatch(batch, 64)
		if err != nil {
			t.Fatal(err)
		}
		ref.ReleaseN(len(batch))
	}
	allocs := testing.AllocsPerRun(100, func() {
		batch, ref, err = rc.ReceiveBatch(batch, 64)
		if err != nil {
			t.Fatal(err)
		}
		ref.ReleaseN(len(batch))
	})
	if allocs > 0 {
		t.Fatalf("keyed ReceiveBatch allocates %.1f per op, want 0", allocs)
	}
}

// TestKeyedSendBatchAllocFree proves the keyed encode path stages frames
// without allocating once buffers are warm.
func TestKeyedSendBatchAllocFree(t *testing.T) {
	absorbed := absorbedOf(5, 6, 7)
	payload := []byte("payload-bytes")
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendFrame(buf[:0], Tuple{Seq: 1, Key: 3, Absorbed: absorbed, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("keyed AppendFrame allocates %.1f per op, want 0", allocs)
	}
}
