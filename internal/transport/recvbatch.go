package transport

import (
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
)

// Receive-side batching mirrors the send side (batch.go): where the sender
// amortizes the per-tuple syscall with one vectored write per batch, the
// receiver amortizes the per-tuple decode with one pass over every complete
// frame already sitting in its buffer. ReceiveBatch is the only receive
// path: a caller that wants one tuple at a time asks for a batch of one.
//
// Payloads decoded by ReceiveBatch are carved from pooled block buffers
// instead of per-tuple allocations. The blocks are reference
// counted through a BlockRef: every returned tuple holds one reference, and
// the consumer releases each reference when it is done with that tuple's
// payload — for the merger, after the tuple is released downstream in order
// (or dropped as a duplicate); for the worker, after the processed batch is
// flushed to the merger. When the last reference drops, the blocks return
// to the pool. See DESIGN "Receive-side batching" for the full ownership
// story.

const (
	// recvBlockCap seeds pooled payload blocks. It matches the Receiver's
	// bufio buffer: one block usually absorbs everything one drain pass can
	// decode. Blocks grow (and keep their grown capacity in the pool) when a
	// single payload exceeds it.
	recvBlockCap = 64 << 10

	// DefaultRecvBatch bounds one ReceiveBatch pass when the caller does not
	// choose. Receive batching is semantically transparent (unlike send
	// batching it coarsens no measurement signal), so the runtime enables it
	// by default at this size.
	DefaultRecvBatch = 64
)

// recvBlock is one pooled payload block. As with frameBuf, the pool stores
// pointers so Get/Put never allocate on the hot path.
type recvBlock struct{ b []byte }

var recvBlockPool = sync.Pool{
	New: func() any { return &recvBlock{b: make([]byte, 0, recvBlockCap)} },
}

// BlockRef is the release hook for the pooled blocks backing one received
// batch's payloads. ReceiveBatch returns it holding one reference per
// decoded tuple; the consumer calls Release once per tuple (or ReleaseN for
// a whole batch) when the payloads are no longer needed. Releasing the last
// reference recycles the blocks — and the BlockRef itself — so payloads
// must not be read after their reference is dropped; copy first to retain.
//
// Release and ReleaseN are safe to call concurrently. A nil BlockRef is a
// valid no-op receiver, so callers of unpooled sources need no special
// casing.
type BlockRef struct {
	refs   atomic.Int64
	blocks []*recvBlock

	// parents chains upstream ownership across an in-process edge: an
	// InprocReceiver's batch ref holds one entry per popped tuple that rode
	// in with its own upstream reference, and releasing the batch's last
	// reference releases each parent exactly once. A TCP batch ref has no
	// parents. See inproc.go.
	parents []*BlockRef
}

var blockRefPool = sync.Pool{New: func() any { return new(BlockRef) }}

// Release drops one tuple's reference.
func (r *BlockRef) Release() { r.ReleaseN(1) }

// ReleaseN drops n references at once — the whole-batch release a worker
// uses after flushing its processed batch downstream.
func (r *BlockRef) ReleaseN(n int) {
	if r == nil || n <= 0 {
		return
	}
	left := r.refs.Add(-int64(n))
	if left > 0 {
		return
	}
	if left < 0 {
		panic("transport: BlockRef released more times than it has references")
	}
	r.recycle()
}

// recycle returns the ref's blocks to the block pool, releases each parent
// reference once, and returns the ref itself to the ref pool.
func (r *BlockRef) recycle() {
	for i, blk := range r.blocks {
		blk.b = blk.b[:0]
		recvBlockPool.Put(blk)
		r.blocks[i] = nil
	}
	r.blocks = r.blocks[:0]
	for i, p := range r.parents {
		p.Release()
		r.parents[i] = nil
	}
	r.parents = r.parents[:0]
	blockRefPool.Put(r)
}

// Refs returns the outstanding reference count (for tests and diagnostics).
func (r *BlockRef) Refs() int64 {
	if r == nil {
		return 0
	}
	return r.refs.Load()
}

// carve reserves n bytes in the ref's current block, sealing it and starting
// a new one when the payload does not fit — payload slices already handed
// out never move, which is what lets tuples alias the blocks safely.
func (r *BlockRef) carve(n int) []byte {
	var blk *recvBlock
	if len(r.blocks) > 0 {
		if last := r.blocks[len(r.blocks)-1]; cap(last.b)-len(last.b) >= n {
			blk = last
		}
	}
	if blk == nil {
		blk = recvBlockPool.Get().(*recvBlock)
		if cap(blk.b) < n {
			// One oversized payload gets a dedicated block; the grown
			// capacity stays with the block in the pool.
			blk.b = make([]byte, 0, n)
		}
		r.blocks = append(r.blocks, blk)
	}
	off := len(blk.b)
	blk.b = blk.b[:off+n]
	return blk.b[off : off+n : off+n]
}

// ReceiveBatch decodes up to max tuples into dst (which is truncated and
// reused, so steady-state callers allocate nothing), blocking only for the
// first: once one tuple has arrived, the pass drains every complete frame
// already buffered and returns rather than waiting for more. max <= 0
// selects DefaultRecvBatch.
//
// Payloads are carved from pooled blocks owned by the returned BlockRef,
// which holds one reference per returned tuple; see BlockRef for the
// release contract. The ref is non-nil whenever at least one tuple is
// returned. Errors: io.EOF at a clean end of stream before the first tuple,
// io.ErrUnexpectedEOF mid-frame. A stream error discovered
// while draining after at least one decoded tuple is deferred: the complete
// leading tuples are returned with a nil error and the failure surfaces on
// the next call.
func (rc *Receiver) ReceiveBatch(dst []Tuple, max int) ([]Tuple, *BlockRef, error) {
	if max <= 0 {
		max = DefaultRecvBatch
	}
	dst = dst[:0]
	if rc.err != nil {
		err := rc.err
		rc.err = nil
		return dst, nil, err
	}
	ref := blockRefPool.Get().(*BlockRef)
	t, err := rc.receive(ref)
	if err != nil {
		// A mid-frame failure can leave a carved block behind; recycle
		// everything before re-pooling the ref.
		ref.recycle()
		return dst, nil, err
	}
	dst = append(dst, t)
	dst = rc.drainInto(dst, max, ref)
	ref.refs.Store(int64(len(dst)))
	return dst, ref, nil
}

// drainInto decodes buffered complete frames into dst until max tuples are
// held or the buffer runs out of complete frames. A malformed frame sets
// rc.err (surfaced to the caller on the next receive) and stops the pass;
// every complete leading frame is still returned.
func (rc *Receiver) drainInto(dst []Tuple, max int, ref *BlockRef) []Tuple {
	for len(dst) < max {
		t, ok, err := rc.tryDecode(ref)
		if err != nil {
			rc.err = err
			break
		}
		if !ok {
			break
		}
		dst = append(dst, t)
	}
	return dst
}

// tryDecode decodes one frame if — and only if — it is fully buffered, so
// it never blocks. ok=false means the next frame is incomplete.
func (rc *Receiver) tryDecode(ref *BlockRef) (Tuple, bool, error) {
	if rc.r.Buffered() < 4 {
		return Tuple{}, false, nil
	}
	hdr, err := rc.r.Peek(4)
	if err != nil {
		return Tuple{}, false, nil
	}
	word := binary.LittleEndian.Uint32(hdr)
	body, flags, fixed, err := decodeLengthWord(word)
	if err != nil {
		return Tuple{}, false, err
	}
	if rc.r.Buffered() < 4+int(body) {
		return Tuple{}, false, nil
	}
	// The whole frame is buffered: none of the reads below can block or
	// short-read.
	rc.r.Discard(4)
	io.ReadFull(rc.r, rc.hdr[4:4+fixed])
	t, absorbed, err := rc.decodeFixed(flags, body, fixed)
	if err != nil {
		return Tuple{}, false, err
	}
	if absorbed > 0 {
		t.Absorbed = ref.carve(absorbed)
		io.ReadFull(rc.r, t.Absorbed)
	}
	if payload := int(body) - fixed - absorbed; payload > 0 {
		t.Payload = ref.carve(payload)
		io.ReadFull(rc.r, t.Payload)
	}
	return t, true, nil
}
