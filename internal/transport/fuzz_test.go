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
// frames straddle the bufio buffer between passes). The decoder must never
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
			if ref.Refs() != int64(len(tuples)) {
				t.Fatalf("ref holds %d references for %d tuples", ref.Refs(), len(tuples))
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
