package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// The TCP receive side decodes in place. A Receiver reads the socket
// straight into a pooled 64 KiB block, and ReceiveBatch — the only receive
// path; one tuple at a time is a batch of one — walks the frames where the
// read left them: it validates each length word where it lies and returns
// tuples whose Payload and Absorbed are cap-limited slices of the block.
// Between the kernel and the consumer no byte is copied.
//
// A block is therefore shared by the consecutive batches decoded out of it,
// and it is reference counted by one BlockRef, which is the block:
//
//	refs = (1 while the block is the receiver's current one)
//	     + (one per tuple handed out of it and not yet released)
//
// ReceiveBatch adds len(batch) before it returns, so the count can only
// reach zero — and the block return to the pool, to be overwritten by some
// other stream — after the receiver has moved off it and every tuple that
// aliases it was released. The receiver is the only one that adds, so a
// count of 1 read by the receiver means nobody else holds the block or ever
// will, and it may be rewound and reused in place. The receiver drops its
// own reference when it moves to the next block, when the stream ends
// (io.EOF or any error) and on Close.
//
// What a consumer may do with a tuple: read and overwrite Payload[:len] and
// Absorbed[:len] until it releases the tuple's reference, and append to
// either (cap == len, so append copies out and cannot touch the next
// frame). What it may not: touch them after the release — copy first to
// retain. DESIGN §4b has the whole lifetime, §8 the owner at each hop.

const (
	// recvBlockCap is the size of a pooled block, and the most one read can
	// return. A frame larger than this gets a dedicated block grown to fit,
	// which keeps its size when it goes back to the pool.
	recvBlockCap = 64 << 10

	// DefaultRecvBatch bounds one in-proc ReceiveBatch pass when the caller
	// does not choose: a ring span has no syscall to amortise. A TCP pass
	// has no default bound; it takes what one read delivered.
	DefaultRecvBatch = 64

	// maxEmptyReads is how many consecutive (0, nil) reads fail a stream
	// with io.ErrNoProgress, as bufio does.
	maxEmptyReads = 100
)

// BlockRef counts the references on one pooled receive block (see the file
// comment for what they are) and is the release hook a consumer holds: it
// calls Release once per tuple, or ReleaseN for several, when the payloads
// are no longer needed. Dropping the last reference recycles the block, so
// a payload must not be read after its reference is released.
//
// Release and ReleaseN are safe to call concurrently. A nil BlockRef is a
// valid no-op receiver, so callers of unpooled sources need no special
// casing.
type BlockRef struct {
	refs atomic.Int64

	// buf is the block's storage, used at its full length.
	buf []byte
}

// recvBlockPool holds pointers so Get/Put never allocate on the hot path.
var recvBlockPool = sync.Pool{New: func() any { return &BlockRef{buf: make([]byte, recvBlockCap)} }}

// poisonFreed makes recycle overwrite a block before pooling it, so that a
// read after release shows up as wrong bytes. Tests switch it on (see
// PoisonFreedBlocks); nothing else does.
var poisonFreed bool

// PoisonFreedBlocks is for TestMain: from then on every block is filled with
// 0xDB when its last reference drops. Call it before any receiver runs.
func PoisonFreedBlocks() { poisonFreed = true }

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

// recycle returns the block to the pool.
func (r *BlockRef) recycle() {
	if poisonFreed {
		r.buf[0] = 0xDB
		for n := 1; n < len(r.buf); n *= 2 {
			copy(r.buf[n:], r.buf[:n])
		}
	}
	recvBlockPool.Put(r)
}

// Refs returns the outstanding reference count (for tests and diagnostics).
func (r *BlockRef) Refs() int64 {
	if r == nil {
		return 0
	}
	return r.refs.Load()
}

// Receiver decodes tuples from a stream written with AppendFrame.
type Receiver struct {
	// src is the stream; Close tears it down when it is closable (a
	// net.Conn).
	src io.Reader

	// mu is held for the length of a ReceiveBatch call, the blocking read
	// included. Nothing waits for it: it is there so that Close, from any
	// goroutine, can tell by TryLock an idle receiver (whose block it gives
	// back) from one inside a call (which gives the block back itself when
	// the closed stream fails its read).
	mu sync.Mutex

	// blk is the current block, on which the receiver holds one reference;
	// buf is blk.buf, and buf[r:w] the bytes read but not yet decoded. All
	// are zero before the first read and after the stream has ended.
	blk  *BlockRef
	buf  []byte
	r, w int

	// err ends the stream: once the buffered bytes are used up every call
	// returns it. A read error waits here while the bytes that arrived with
	// or before it are decoded; a malformed frame found behind complete ones
	// waits while those are returned.
	err error

	// begun is set once the stream's first four bytes have been looked at
	// for the sender's ack hello (WriteAckHello); ackTo is src when they were
	// it and src is writable, else nil (acks.go). ack is Ack's frame buffer;
	// early is set while it holds an Ack made before begun, which the hello
	// sends. All belong to the consuming goroutine.
	begun bool
	early bool
	ackTo io.Writer
	ack   [ackFrameSize]byte
}

// NewReceiver wraps a stream in a tuple decoder. It takes its first block
// when it first reads.
func NewReceiver(r io.Reader) *Receiver { return &Receiver{src: r} }

var errReceiverClosed = errors.New("transport: receiver closed")

// Close closes the underlying stream when it is closable — an in-flight
// blocking read then fails, unblocking ReceiveBatch — and ends the stream
// for later calls either way. The current block goes back now if the
// receiver is idle, or as the interrupted call returns.
func (rc *Receiver) Close() error {
	var err error
	if c, ok := rc.src.(io.Closer); ok {
		err = c.Close()
	}
	if rc.mu.TryLock() {
		if rc.err == nil {
			rc.err = errReceiverClosed
		}
		rc.dropBlock()
		rc.mu.Unlock()
	}
	return err
}

// dropBlock gives up the receiver's reference on its current block, and
// with it any undecoded bytes.
func (rc *Receiver) dropBlock() {
	rc.blk.Release()
	rc.blk, rc.buf, rc.r, rc.w = nil, nil, 0, 0
}

// ReceiveBatch decodes up to max tuples into dst (which is truncated and
// reused, so steady-state callers allocate nothing), blocking only for the
// first: once one tuple has arrived, the pass takes every complete frame
// already in the block and returns rather than waiting for more — a frame
// whose tail has not been read, or lies past the end of the block, ends the
// pass. max <= 0 sets no bound: the pass is every complete frame already in
// the block, which is what the last read delivered.
//
// The tuples alias the returned BlockRef's block, on which each holds one
// reference; see BlockRef for the release contract. The ref is non-nil
// whenever at least one tuple is returned. Errors: io.EOF at a clean end of
// stream before the first tuple, io.ErrUnexpectedEOF mid-frame. A malformed
// frame behind complete ones is deferred: the leading tuples are returned
// with a nil error and the failure surfaces on the next call. Every error
// is final.
func (rc *Receiver) ReceiveBatch(dst []Tuple, max int) ([]Tuple, *BlockRef, error) {
	if max <= 0 {
		max = math.MaxInt
	}
	dst = dst[:0]
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for {
		if !rc.begun && rc.w-rc.r >= 4 {
			rc.begun = true
			if binary.LittleEndian.Uint32(rc.buf[rc.r:]) == ackHello {
				rc.r += 4
				rc.ackTo, _ = rc.src.(io.Writer)
				rc.answerHello()
			}
			rc.early = false
		}
		size := 0
		for len(dst) < max {
			dst = append(dst, Tuple{})
			n, err := decodeFrame(rc.buf[rc.r:rc.w], &dst[len(dst)-1])
			if err != nil || n > rc.w-rc.r {
				dst, size = dst[:len(dst)-1], n
				if err != nil {
					rc.err = err
				}
				break
			}
			rc.r += n
		}
		if len(dst) > 0 {
			rc.blk.refs.Add(int64(len(dst)))
			return dst, rc.blk, nil
		}
		if rc.err != nil {
			if rc.err == io.EOF && rc.r < rc.w {
				rc.err = fmt.Errorf("transport: stream ended mid-frame: %w", io.ErrUnexpectedEOF)
			}
			rc.dropBlock()
			return dst, nil, rc.err
		}
		rc.fill(size)
	}
}

// answerHello answers the sender's hello with the consumer's early Ack, or
// with ackNone, after which this stream sends no ack at all. A failed write
// ends the stream, which the next read reports.
func (rc *Receiver) answerHello() {
	to := rc.ackTo
	if to == nil {
		return
	}
	if !rc.early {
		binary.LittleEndian.PutUint64(rc.ack[:], ackNone)
		rc.ackTo = nil
	}
	_, _ = to.Write(rc.ack[:])
}

// Ack reports to the sender that the consumer has finished with n of the
// stream's tuples in total: one ack frame written back on the connection, if
// the stream opened with the ack hello (WriteAckHello) and its source is
// writable; otherwise nothing. An Ack made before the first receive has
// looked at the stream's opening answers the hello; a consumer that makes
// none answers that it will not ack, and its later Acks send nothing. Call
// it from the consuming goroutine.
func (rc *Receiver) Ack(n uint64) error {
	if !rc.begun {
		binary.LittleEndian.PutUint64(rc.ack[:], n)
		rc.early = true
		return nil
	}
	if rc.ackTo == nil {
		return nil
	}
	binary.LittleEndian.PutUint64(rc.ack[:], n)
	_, err := rc.ackTo.Write(rc.ack[:])
	return err
}

// fill blocks in one read for more of the frame at buf[r:], which is size
// bytes long (4 while its length word is short). It first makes sure the
// whole frame fits in the block and that the read has at least half a block
// to land in, so reads stay as large as the stream can fill.
func (rc *Receiver) fill(size int) {
	if rc.r+size > len(rc.buf) || rc.r > 0 && len(rc.buf)-rc.w < recvBlockCap/2 {
		rc.moveOff(size)
	}
	var n int
	var err error
	for i := 0; n == 0 && err == nil; i++ {
		if i == maxEmptyReads {
			err = io.ErrNoProgress
			break
		}
		n, err = rc.src.Read(rc.buf[rc.w:])
	}
	rc.w += n
	switch {
	case err == nil:
	case errors.Is(err, io.EOF):
		rc.err = io.EOF
	default:
		rc.err = fmt.Errorf("transport: read frame: %w", err)
	}
}

// moveOff puts the undecoded tail buf[r:w] at the front of a block with room
// for size bytes. A block only the receiver holds is rewound in place;
// otherwise the tail moves to a fresh block — dedicated and grown when the
// frame is larger than a block — and the old one, whose handed-out slices
// are not disturbed, is left to its tuples.
func (rc *Receiver) moveOff(size int) {
	tail := rc.buf[rc.r:rc.w]
	if rc.blk == nil || size > len(rc.buf) || rc.blk.refs.Load() != 1 {
		next := recvBlockPool.Get().(*BlockRef)
		if len(next.buf) < size {
			next.buf = make([]byte, size)
		}
		next.refs.Store(1)
		copy(next.buf, tail)
		rc.blk.Release()
		rc.blk, rc.buf = next, next.buf
	} else {
		copy(rc.buf, tail)
	}
	rc.r, rc.w = 0, len(tail)
}
