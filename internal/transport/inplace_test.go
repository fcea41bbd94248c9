package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/iotest"
)

// held is a received tuple kept past its ReceiveBatch call, with the
// reference that keeps its block alive.
type held struct {
	t   Tuple
	ref *BlockRef
}

// holdAll drains rc in batches of at most max, holding every reference,
// until the stream ends; it returns the tuples and the terminal error.
func holdAll(rc *Receiver, max int) ([]held, error) {
	var out []held
	for {
		batch, ref, err := rc.ReceiveBatch(nil, max)
		if err != nil {
			return out, err
		}
		if len(batch) == 0 || len(batch) > max {
			return out, fmt.Errorf("batch of %d tuples with max %d", len(batch), max)
		}
		for _, t := range batch {
			out = append(out, held{t, ref})
		}
	}
}

func releaseAll(hs []held) {
	for _, h := range hs {
		h.ref.Release()
	}
}

// sameTuple reports a difference between a decoded tuple and what was sent.
func sameTuple(got, want Tuple) error {
	if got.Seq != want.Seq || got.Key != want.Key || got.Solo != want.Solo {
		return fmt.Errorf("seq/key/solo %d/%d/%v, want %d/%d/%v", got.Seq, got.Key, got.Solo, want.Seq, want.Key, want.Solo)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		return fmt.Errorf("seq %d: payload of %d bytes differs (want %d bytes)", got.Seq, len(got.Payload), len(want.Payload))
	}
	if !bytes.Equal(got.Absorbed, want.Absorbed) {
		return fmt.Errorf("seq %d: absorbed seqs differ", got.Seq)
	}
	return nil
}

// pattern returns n bytes that differ from tuple to tuple and along the slice.
func pattern(seq uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seq*31 + uint64(i)*7)
	}
	return b
}

// mixedStream is a wire image of every frame shape — unkeyed, keyed, solo,
// combined, empty payload, a frame larger than a block — long enough to
// cross several block ends at unaligned offsets.
func mixedStream(t testing.TB) ([]Tuple, []byte) {
	t.Helper()
	var ts []Tuple
	for seq := uint64(0); seq < 1200; seq++ {
		tu := Tuple{Seq: seq, Payload: pattern(seq, int(seq*53%400))}
		switch seq % 5 {
		case 1:
			tu.Key = seq%9 + 1
		case 2:
			tu.Key, tu.Solo = seq%9+1, true
		case 3:
			tu.Key, tu.Absorbed = seq%9+1, pattern(seq+1, 8*int(1+seq%40))
		}
		if seq == 700 {
			tu.Payload = pattern(seq, recvBlockCap+1234)
		}
		ts = append(ts, tu)
	}
	wire, err := AppendBatch(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	return ts, wire
}

// TestInPlaceDecodeAnyReadBoundary: the same stream delivered one byte at a
// time, in halving reads and in whole reads decodes to identical tuples for
// every batch bound, whether the consumer holds its references (the receiver
// must move to fresh blocks) or releases each batch at once (it rewinds the
// block in place).
func TestInPlaceDecodeAnyReadBoundary(t *testing.T) {
	ts, wire := mixedStream(t)
	readers := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"half":    iotest.HalfReader,
		"onebyte": iotest.OneByteReader,
		"dataerr": iotest.DataErrReader, // the last bytes arrive together with io.EOF
	}
	for name, wrap := range readers {
		for _, max := range []int{1, 2, 64} {
			for _, hold := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/max=%d/hold=%v", name, max, hold), func(t *testing.T) {
					rc := NewReceiver(wrap(bytes.NewReader(wire)))
					next := 0
					var kept []held
					for {
						batch, ref, err := rc.ReceiveBatch(nil, max)
						if err != nil {
							if err != io.EOF {
								t.Fatalf("after %d tuples: %v", next, err)
							}
							break
						}
						for _, got := range batch {
							if next >= len(ts) {
								t.Fatalf("decoded more than the %d tuples sent", len(ts))
							}
							if err := sameTuple(got, ts[next]); err != nil {
								t.Fatalf("tuple %d: %v", next, err)
							}
							next++
							kept = append(kept, held{got, ref})
						}
						if !hold {
							releaseAll(kept)
							kept = kept[:0]
						}
					}
					if next != len(ts) {
						t.Fatalf("decoded %d of %d tuples", next, len(ts))
					}
					// Held tuples survived everything decoded after them.
					for i, h := range kept {
						if err := sameTuple(h.t, ts[i]); err != nil {
							t.Fatalf("held tuple %d changed after later batches: %v", i, err)
						}
					}
					releaseAll(kept)
				})
			}
		}
	}
}

// TestInPlaceDecodeStraddlesBlockEnd puts a keyed, combined frame across the
// end of the first block at every interesting offset: the cut falls in the
// length word, the fixed header, the absorbed seqs and the payload.
func TestInPlaceDecodeStraddlesBlockEnd(t *testing.T) {
	straddler := Tuple{Seq: 1 << 40, Key: 7, Absorbed: pattern(3, 8*20), Payload: pattern(4, 300)}
	// Bytes of the straddling frame that still fit in the first block.
	for _, before := range []int{1, 3, 4, 11, 12, 20, 24, 25, 24 + 80, 24 + 160, 24 + 161, 24 + 160 + 299} {
		for _, hold := range []bool{true, false} {
			t.Run(fmt.Sprintf("before=%d/hold=%v", before, hold), func(t *testing.T) {
				// Leading frames fill the block up to recvBlockCap-before.
				var ts []Tuple
				room := recvBlockCap - before
				for seq := uint64(0); room > 0; seq++ {
					n := 100
					if room < 2*(frameHeaderSize+n) {
						n = room - frameHeaderSize // the last one takes what is left
					}
					ts = append(ts, Tuple{Seq: seq, Payload: pattern(seq, n)})
					room -= frameHeaderSize + n
				}
				ts = append(ts, straddler, Tuple{Seq: 1<<40 + 1, Payload: []byte("after")})
				wire, err := AppendBatch(nil, ts)
				if err != nil {
					t.Fatal(err)
				}
				if off := len(wire) - FrameLen(straddler) - FrameLen(ts[len(ts)-1]); off != recvBlockCap-before {
					t.Fatalf("fixture: straddling frame starts at %d, want %d", off, recvBlockCap-before)
				}
				rc := NewReceiver(bytes.NewReader(wire))
				var kept []held
				for len(kept) < len(ts) {
					batch, ref, err := rc.ReceiveBatch(nil, 64)
					if err != nil {
						t.Fatalf("after %d tuples: %v", len(kept), err)
					}
					for _, got := range batch {
						kept = append(kept, held{got, ref})
					}
					if !hold {
						for i := len(kept) - len(batch); i < len(kept); i++ {
							if err := sameTuple(kept[i].t, ts[i]); err != nil {
								t.Fatalf("tuple %d: %v", i, err)
							}
						}
						ref.ReleaseN(len(batch))
					}
				}
				if hold {
					for i, h := range kept {
						if err := sameTuple(h.t, ts[i]); err != nil {
							t.Fatalf("tuple %d: %v", i, err)
						}
					}
					releaseAll(kept)
				}
			})
		}
	}
}

// TestInPlaceSlicesAreCapLimitedAndDisjoint: every returned slice has
// cap == len, so an operator's append copies out instead of scribbling on
// the next frame, and no two tuples share a byte — each is overwritten with
// its own mark and all marks survive.
func TestInPlaceSlicesAreCapLimitedAndDisjoint(t *testing.T) {
	ts, wire := mixedStream(t)
	kept, err := holdAll(NewReceiver(bytes.NewReader(wire)), 64)
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(kept) != len(ts) {
		t.Fatalf("decoded %d of %d tuples", len(kept), len(ts))
	}
	for i, h := range kept {
		if cap(h.t.Payload) != len(h.t.Payload) || cap(h.t.Absorbed) != len(h.t.Absorbed) {
			t.Fatalf("tuple %d: payload len %d cap %d, absorbed len %d cap %d: slices must be cap-limited",
				i, len(h.t.Payload), cap(h.t.Payload), len(h.t.Absorbed), cap(h.t.Absorbed))
		}
		_ = append(h.t.Payload, 0xEE, 0xEE, 0xEE, 0xEE)
		_ = append(h.t.Absorbed, 0xEE, 0xEE, 0xEE, 0xEE)
	}
	for i, h := range kept {
		if err := sameTuple(h.t, ts[i]); err != nil {
			t.Fatalf("tuple %d changed by an append to its neighbour: %v", i, err)
		}
	}
	mark := func(i int) byte { return byte(i*13 + 1) }
	for i, h := range kept {
		for j := range h.t.Payload {
			h.t.Payload[j] = mark(i)
		}
		for j := range h.t.Absorbed {
			h.t.Absorbed[j] = mark(i) ^ 0xFF
		}
	}
	for i, h := range kept {
		for _, b := range h.t.Payload {
			if b != mark(i) {
				t.Fatalf("tuple %d's payload shares bytes with another tuple", i)
			}
		}
		for _, b := range h.t.Absorbed {
			if b != mark(i)^0xFF {
				t.Fatalf("tuple %d's absorbed seqs share bytes with another tuple", i)
			}
		}
	}
	releaseAll(kept)
}

// TestReceiverGivesItsBlockBack: after io.EOF, after a stream error, after a
// deferred decode error and after Close — idle or interrupting a blocked
// call — the receiver holds no reference: the last block's count is exactly
// the tuples still held, and zero (the block back in the pool, which with
// the poison hook on means overwritten) once they are released.
func TestReceiverGivesItsBlockBack(t *testing.T) {
	ts, wire := encodeFrames(t, 6)
	malformed := binary.LittleEndian.AppendUint32(append([]byte(nil), wire...), 4) // body < 8
	check := func(t *testing.T, kept []held) {
		t.Helper()
		if len(kept) != len(ts) {
			t.Fatalf("decoded %d of %d leading tuples", len(kept), len(ts))
		}
		last := kept[len(kept)-1].ref
		onLast := 0
		for _, h := range kept {
			if h.ref == last {
				onLast++
			}
		}
		if got := last.Refs(); got != int64(onLast) {
			t.Fatalf("block holds %d references with %d tuples outstanding: the receiver kept one", got, onLast)
		}
		probe := kept[len(kept)-1].t.Payload
		releaseAll(kept)
		if got := last.Refs(); got != 0 {
			t.Fatalf("block holds %d references after every release", got)
		}
		if !bytes.Equal(probe, bytes.Repeat([]byte{0xDB}, len(probe))) {
			t.Fatal("released block was not returned to the pool (not poisoned)")
		}
	}
	t.Run("eof", func(t *testing.T) {
		kept, err := holdAll(NewReceiver(bytes.NewReader(wire)), 4)
		if err != io.EOF {
			t.Fatalf("terminal error %v, want io.EOF", err)
		}
		check(t, kept)
	})
	t.Run("truncated", func(t *testing.T) {
		kept, err := holdAll(NewReceiver(bytes.NewReader(append(wire[:len(wire):len(wire)], 9, 0, 0))), 4)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("terminal error %v, want io.ErrUnexpectedEOF", err)
		}
		check(t, kept)
	})
	t.Run("malformed", func(t *testing.T) {
		rc := NewReceiver(bytes.NewReader(malformed))
		kept, err := holdAll(rc, 4)
		if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("terminal error %v, want the decode error", err)
		}
		if _, _, again := rc.ReceiveBatch(nil, 4); again != err {
			t.Fatalf("error after the stream failed: %v, want the same %v", again, err)
		}
		check(t, kept)
	})
	t.Run("read-error", func(t *testing.T) {
		boom := errors.New("boom")
		kept, err := holdAll(NewReceiver(io.MultiReader(bytes.NewReader(wire), iotest.ErrReader(boom))), 4)
		if !errors.Is(err, boom) {
			t.Fatalf("terminal error %v, want the read error", err)
		}
		check(t, kept)
	})
	t.Run("read-error-with-data", func(t *testing.T) {
		// The error arrives once, on the read that also delivers the last
		// bytes: those decode first, then that error — not a later one — ends
		// the stream.
		boom := errors.New("boom")
		kept, err := holdAll(NewReceiver(&dataThenErr{data: wire, err: boom}), 4)
		if !errors.Is(err, boom) {
			t.Fatalf("terminal error %v, want the read error", err)
		}
		check(t, kept)
	})
	t.Run("close-idle", func(t *testing.T) {
		rc := NewReceiver(bytes.NewReader(append(wire[:len(wire):len(wire)], wire...)))
		var kept []held
		for len(kept) < len(ts) {
			batch, ref, err := rc.ReceiveBatch(nil, len(ts)-len(kept))
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range batch {
				kept = append(kept, held{tu, ref})
			}
		}
		rc.Close()
		if _, _, err := rc.ReceiveBatch(nil, 4); err == nil {
			t.Fatal("ReceiveBatch after Close succeeded")
		}
		check(t, kept)
	})
	t.Run("close-blocked", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		go client.Write(wire)
		rc := NewReceiver(server)
		var kept []held
		for len(kept) < len(ts) {
			batch, ref, err := rc.ReceiveBatch(nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range batch {
				kept = append(kept, held{tu, ref})
			}
		}
		failed := make(chan error)
		go func() {
			_, _, err := rc.ReceiveBatch(nil, 4) // blocks: nothing more is coming
			failed <- err
		}()
		for rc.mu.TryLock() { // wait until the call is inside
			rc.mu.Unlock()
			runtime.Gosched()
		}
		rc.Close()
		if err := <-failed; err == nil {
			t.Fatal("Close did not fail the blocked ReceiveBatch")
		}
		check(t, kept)
	})
}

// dataThenErr returns all its data and its error from one Read, io.EOF after.
type dataThenErr struct {
	data []byte
	err  error
}

func (d *dataThenErr) Read(p []byte) (int, error) {
	if d.data == nil {
		return 0, io.EOF
	}
	n := copy(p, d.data)
	d.data = nil
	return n, d.err
}

// countingReader counts Read calls and returns at most limit bytes from each
// (0 = as many as fit).
type countingReader struct {
	r     io.Reader
	limit int
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if c.limit > 0 && len(p) > c.limit {
		p = p[:c.limit]
	}
	return c.r.Read(p)
}

// TestInPlaceReadsStayLarge counts source reads, the decoder's syscalls. A
// source that offers 4 KiB at a time is never asked for less than it offers
// (one read per 4 KiB, as through a 64 KiB bufio.Reader), and a source with
// everything ready is read at least half a block at a time even while the
// consumer sits on every block.
func TestInPlaceReadsStayLarge(t *testing.T) {
	ts := make([]Tuple, 20000)
	for i := range ts {
		ts[i] = Tuple{Seq: uint64(i), Payload: pattern(uint64(i), 64)}
	}
	wire, err := AppendBatch(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, hold := range []bool{true, false} {
		for _, limit := range []int{4096, 0} {
			src := &countingReader{r: bytes.NewReader(wire), limit: limit}
			rc := NewReceiver(src)
			var kept []held
			n := 0
			for {
				batch, ref, err := rc.ReceiveBatch(nil, 64)
				if err != nil {
					break
				}
				n += len(batch)
				if hold {
					for _, tu := range batch {
						kept = append(kept, held{tu, ref})
					}
				} else {
					ref.ReleaseN(len(batch))
				}
			}
			releaseAll(kept)
			if n != len(ts) {
				t.Fatalf("decoded %d of %d", n, len(ts))
			}
			per := limit
			if per == 0 {
				per = recvBlockCap / 2
			}
			if most := (len(wire)+per-1)/per + 1; src.reads > most {
				t.Errorf("hold=%v limit=%d: %d reads for %d bytes, want at most %d", hold, limit, src.reads, len(wire), most)
			}
		}
	}
}
