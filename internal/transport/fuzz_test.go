package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReceive throws arbitrary bytes at the frame decoder: it must never
// panic and must either produce a tuple or a clean error.
func FuzzReceive(f *testing.F) {
	good, _ := AppendFrame(nil, Tuple{Seq: 7, Payload: []byte("payload")})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3})
	f.Add(append(good, good...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rc := NewReceiver(bytes.NewReader(data))
		for i := 0; i < 100; i++ {
			_, err := recvOne(rc)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				return // any clean error ends the stream
			}
		}
	})
}

// FuzzBatchRoundTrip checks that a batch — concatenated frames from
// AppendBatch — decodes back to exactly the tuples that went in, for any
// split of fuzz bytes into payloads. A batch has no wire header of its own,
// so this also pins the invariant that batched and per-tuple senders are
// indistinguishable to the receiver.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte("hello"), uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		// Carve data into k payloads of varying lengths.
		n := int(k%16) + 1
		ts := make([]Tuple, n)
		for i := range ts {
			lo := len(data) * i / n
			hi := len(data) * (i + 1) / n
			ts[i] = Tuple{Seq: uint64(i) * 3, Payload: data[lo:hi]}
		}
		batch, err := AppendBatch(nil, ts)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		rc := NewReceiver(bytes.NewReader(batch))
		for i := range ts {
			got, err := recvOne(rc)
			if err != nil {
				t.Fatalf("Receive %d: %v", i, err)
			}
			if got.Seq != ts[i].Seq || !bytes.Equal(got.Payload, ts[i].Payload) {
				t.Fatalf("tuple %d changed in batch round trip", i)
			}
		}
		if _, err := recvOne(rc); !errors.Is(err, io.EOF) {
			t.Fatalf("batch left trailing bytes: %v", err)
		}
	})
}

// FuzzReceiveTruncatedBatch feeds the decoder batches cut off at arbitrary
// byte offsets, with an optionally corrupted length prefix (the oversized
// case): it must never panic, must return every complete leading frame
// intact, and must fail cleanly at the damage.
func FuzzReceiveTruncatedBatch(f *testing.F) {
	f.Add(uint16(10), uint16(3), uint32(0))
	f.Add(uint16(100), uint16(0), uint32(0xffffffff))
	f.Add(uint16(5000), uint16(1), uint32(1))
	f.Fuzz(func(t *testing.T, cut uint16, nTuples uint16, poison uint32) {
		n := int(nTuples%8) + 1
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{Seq: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, (i*37)%256)}
		}
		batch, err := AppendBatch(nil, ts)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		if poison != 0 {
			// Overwrite the final frame's length prefix: oversized or
			// undersized prefixes must be rejected, not trusted.
			off := len(batch) - FrameLen(ts[n-1])
			binary.LittleEndian.PutUint32(batch[off:], poison)
		}
		if int(cut) < len(batch) {
			batch = batch[:cut]
		}
		rc := NewReceiver(bytes.NewReader(batch))
		decoded := 0
		for {
			got, err := recvOne(rc)
			if err != nil {
				break // clean error or EOF at the damage — both fine
			}
			if decoded < n && poison == 0 {
				if got.Seq != ts[decoded].Seq || !bytes.Equal(got.Payload, ts[decoded].Payload) {
					t.Fatalf("leading frame %d corrupted by truncation", decoded)
				}
			}
			decoded++
			// A poisoned prefix may legally re-frame the trailing bytes, but
			// an undamaged (merely truncated) batch can never yield more
			// tuples than were encoded.
			if poison == 0 && decoded > n {
				t.Fatalf("decoded %d tuples from a %d-tuple batch", decoded, n)
			}
			if decoded > 2*n+8 {
				t.Fatalf("decoder runaway: %d tuples from %d-tuple batch", decoded, n)
			}
		}
	})
}

// FuzzReceiveBatchTruncated drives the multi-frame drain over batches cut at
// arbitrary byte offsets, optionally with a poisoned length prefix, and with
// the stream delivered in reads split at an arbitrary boundary (so complete
// frames straddle two reads). The decoder must never
// panic, must return every complete leading frame intact and in order, and
// must fail cleanly at the damage — including when the failure is deferred
// to the call after the one that decoded the leading frames.
func FuzzReceiveBatchTruncated(f *testing.F) {
	f.Add(uint16(10), uint16(3), uint32(0), uint16(0), uint8(4))
	f.Add(uint16(100), uint16(0), uint32(0xffffffff), uint16(7), uint8(1))
	f.Add(uint16(5000), uint16(5), uint32(1), uint16(60), uint8(16))
	f.Add(uint16(65535), uint16(7), uint32(0), uint16(13), uint8(0))
	f.Fuzz(func(t *testing.T, cut uint16, nTuples uint16, poison uint32, split uint16, max uint8) {
		n := int(nTuples%8) + 1
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{Seq: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, (i*37)%256)}
		}
		batch, err := AppendBatch(nil, ts)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		if poison != 0 {
			off := len(batch) - FrameLen(ts[n-1])
			binary.LittleEndian.PutUint32(batch[off:], poison)
		}
		if int(cut) < len(batch) {
			batch = batch[:cut]
		}
		// Deliver the bytes in two reads split at an arbitrary boundary, so
		// the drain pass sees an incomplete trailing frame that completes on
		// the next blocking read.
		at := int(split) % (len(batch) + 1)
		rc := NewReceiver(io.MultiReader(bytes.NewReader(batch[:at]), bytes.NewReader(batch[at:])))
		maxBatch := int(max%17) + 1
		decoded := 0
		var dst []Tuple
		for {
			tuples, ref, err := rc.ReceiveBatch(dst, maxBatch)
			if err != nil {
				break // clean error or EOF at the damage — both fine
			}
			if len(tuples) == 0 || len(tuples) > maxBatch {
				t.Fatalf("batch of %d tuples with max %d", len(tuples), maxBatch)
			}
			if ref.Refs() != int64(len(tuples))+1 {
				t.Fatalf("block holds %d references for %d tuples and the receiver", ref.Refs(), len(tuples))
			}
			for _, got := range tuples {
				if decoded < n && poison == 0 {
					if got.Seq != ts[decoded].Seq || !bytes.Equal(got.Payload, ts[decoded].Payload) {
						t.Fatalf("leading frame %d corrupted by truncation/split", decoded)
					}
				}
				decoded++
			}
			ref.ReleaseN(len(tuples))
			dst = tuples
			if poison == 0 && decoded > n {
				t.Fatalf("decoded %d tuples from a %d-tuple batch", decoded, n)
			}
			if decoded > 2*n+8 {
				t.Fatalf("decoder runaway: %d tuples from %d-tuple batch", decoded, n)
			}
		}
	})
}

// FuzzRoundTrip checks that encode/decode is the identity for any payload.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), []byte(nil))
	f.Add(uint64(1<<63), []byte("hello"))
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte) {
		frame, err := AppendFrame(nil, Tuple{Seq: seq, Payload: payload})
		if err != nil {
			if len(payload) > MaxFrameSize-8 {
				return // oversized payloads are rejected by contract
			}
			t.Fatalf("AppendFrame: %v", err)
		}
		got, err := recvOne(NewReceiver(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("Receive: %v", err)
		}
		if got.Seq != seq || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("round trip changed tuple: seq %d->%d", seq, got.Seq)
		}
	})
}

// chunkReader delivers data in reads of 1+sizes[i]*scale bytes, cycling
// through sizes: arbitrary read boundaries, small against a frame at scale 1
// and large against a block at scale 97.
type chunkReader struct {
	data  []byte
	sizes []byte
	scale int
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n += int(c.sizes[c.i%len(c.sizes)]) * c.scale
		c.i++
	}
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// FuzzReceiveInPlace is the differential check of the in-place decoder: a
// stream of mixed frame shapes — optionally long enough to cross a block
// end, with any one length word poisoned and cut at any byte — must decode
// to the same tuples and end in the same kind of error whether it arrives in
// whole reads or in arbitrary chunks, with the references held or released
// as it goes. Leading undamaged frames must come back as encoded, and every
// slice cap-limited.
func FuzzReceiveInPlace(f *testing.F) {
	f.Add(uint16(5), uint16(0), uint32(0), uint32(0), []byte{0}, uint8(3), false)
	f.Add(uint16(40), uint16(7), uint32(0xffffffff), uint32(0), []byte{3, 0, 200}, uint8(0), false)
	f.Add(uint16(9), uint16(2), uint32(5), uint32(700), []byte{1, 2, 3, 4}, uint8(63), true)
	f.Add(uint16(47), uint16(46), uint32(1<<30|1<<31|40), uint32(0), []byte{255, 9}, uint8(1), true)
	f.Add(uint16(20), uint16(0), uint32(recvBlockCap+500), uint32(0), []byte{17}, uint8(16), true)
	f.Fuzz(func(t *testing.T, nTuples, poisonAt uint16, poison, cut uint32, chunks []byte, max uint8, long bool) {
		n := int(nTuples%48) + 1
		if long {
			n += 700 // ≈ 80 KiB: the stream crosses the first block's end
		}
		ts := make([]Tuple, n)
		offs := make([]int, n)
		var wire []byte
		for i := range ts {
			seq := uint64(i)
			ts[i] = Tuple{Seq: seq, Payload: pattern(seq, (i*37)%256)}
			if i%3 == 1 {
				ts[i].Key, ts[i].Solo = seq%5+1, i%2 == 0
			}
			if i%7 == 3 {
				ts[i].Key, ts[i].Absorbed = seq%5+1, pattern(seq+1, 8*(1+i%9))
			}
			offs[i] = len(wire)
			var err error
			if wire, err = AppendFrame(wire, ts[i]); err != nil {
				t.Fatal(err)
			}
		}
		intact := n // frames before the damage
		if poison != 0 {
			intact = int(poisonAt) % n
			binary.LittleEndian.PutUint32(wire[offs[intact]:], poison)
		}
		if cut != 0 {
			wire = wire[:int(cut)%(len(wire)+1)]
			for intact > 0 && offs[intact-1]+FrameLen(ts[intact-1]) > len(wire) {
				intact--
			}
		}
		maxBatch := int(max%64) + 1
		decode := func(src io.Reader, hold bool) ([]Tuple, error) {
			rc := NewReceiver(src)
			var out []Tuple
			var kept []held
			defer func() { releaseAll(kept) }()
			for {
				batch, ref, err := rc.ReceiveBatch(nil, maxBatch)
				if err != nil {
					for i, h := range kept {
						if sameTuple(h.t, out[i]) != nil {
							t.Fatalf("held tuple %d changed under later batches", i)
						}
					}
					return out, err
				}
				if len(batch) == 0 || len(batch) > maxBatch {
					t.Fatalf("batch of %d tuples with max %d", len(batch), maxBatch)
				}
				for _, got := range batch {
					if cap(got.Payload) != len(got.Payload) || cap(got.Absorbed) != len(got.Absorbed) {
						t.Fatalf("tuple %d: slice not cap-limited", len(out))
					}
					if len(out) < intact {
						if err := sameTuple(got, ts[len(out)]); err != nil {
							t.Fatalf("intact leading frame %d: %v", len(out), err)
						}
					}
					cp := got
					cp.Payload = append([]byte(nil), got.Payload...)
					cp.Absorbed = append([]byte(nil), got.Absorbed...)
					out = append(out, cp)
					if hold {
						kept = append(kept, held{got, ref})
					}
				}
				if !hold {
					ref.ReleaseN(len(batch))
				}
				if len(out) > 2*n+8 {
					t.Fatalf("decoder runaway: %d tuples from a %d-tuple stream", len(out), n)
				}
			}
		}
		kind := func(err error) string {
			switch {
			case err == io.EOF:
				return "eof"
			case errors.Is(err, io.ErrUnexpectedEOF):
				return "unexpected-eof"
			}
			return "malformed"
		}
		want, wantErr := decode(bytes.NewReader(wire), true)
		if len(want) < intact {
			t.Fatalf("decoded %d tuples, %d frames were intact", len(want), intact)
		}
		if poison == 0 && len(want) != intact {
			t.Fatalf("decoded %d tuples from %d complete frames", len(want), intact)
		}
		for _, scale := range []int{1, 97} {
			for _, hold := range []bool{true, false} {
				got, gotErr := decode(&chunkReader{data: wire, sizes: chunks, scale: scale}, hold)
				if len(got) != len(want) || kind(gotErr) != kind(wantErr) {
					t.Fatalf("scale %d hold %v: %d tuples then %v; whole reads gave %d then %v",
						scale, hold, len(got), gotErr, len(want), wantErr)
				}
				for i := range got {
					if err := sameTuple(got[i], want[i]); err != nil {
						t.Fatalf("scale %d hold %v: tuple %d differs from the whole-read decode: %v", scale, hold, i, err)
					}
				}
			}
		}
	})
}
