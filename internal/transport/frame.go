package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Tuple is the unit of data flowing through a parallel region: a sequence
// number assigned by the splitter (which the merger uses to restore order)
// and an opaque payload, optionally tagged with a grouping key.
type Tuple struct {
	Seq uint64

	// Key groups tuples for keyed routing and per-key combining. Zero means
	// unkeyed: the tuple encodes in the legacy frame format, and no key
	// router or combiner ever touches it (keyed workload generators emit
	// keys >= 1).
	Key uint64

	// Solo marks a keyed tuple that must not be absorbed into a combined
	// carrier. The splitter sets it on every recovery replay, so combine
	// groups only ever form from first transmissions — which keeps groups
	// disjoint across crashes and is what makes combining safe under the
	// merger's exactly-once release (see DESIGN, "Keyed routing").
	Solo bool

	// Absorbed carries the sequence numbers a worker-side combiner folded
	// into this carrier tuple, as len/8 little-endian uint64s. The merger
	// releases the carrier once and then advances its watermark silently
	// through the absorbed seqs. Raw bytes rather than []uint64 so receivers
	// can alias it in the pooled block next to the payload, keeping the keyed
	// receive path allocation-free.
	Absorbed []byte

	Payload []byte
}

// AbsorbedCount returns how many sequence numbers this carrier absorbed.
func (t Tuple) AbsorbedCount() int { return len(t.Absorbed) / 8 }

// AbsorbedSeq returns the i-th absorbed sequence number.
func (t Tuple) AbsorbedSeq(i int) uint64 {
	return binary.LittleEndian.Uint64(t.Absorbed[i*8:])
}

// AppendAbsorbed appends one absorbed sequence number to an Absorbed buffer
// in wire encoding (the combiner's accumulation helper).
func AppendAbsorbed(dst []byte, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// MaxFrameSize bounds a single encoded tuple, protecting receivers from
// corrupt or hostile length prefixes.
const MaxFrameSize = 16 << 20

// frameHeaderSize is the wire overhead per unkeyed tuple: a 4-byte length
// word (covering the sequence number and payload) followed by the 8-byte
// sequence number.
const frameHeaderSize = 4 + 8

// Flag bits carried in the high bits of the 4-byte length word. A frame body
// is bounded by MaxFrameSize (2^24 bytes), so bits 25-31 of the length word
// are never used by the length itself; the keyed extension claims the top
// three. Unkeyed tuples set no flag bits and stay byte-identical to the
// pre-keyed wire format, so mixed-version peers interoperate on unkeyed
// streams.
const (
	flagKeyed    = 1 << 31 // an 8-byte key follows the sequence number
	flagCombined = 1 << 30 // u32 count + count 8-byte absorbed seqs follow the key
	flagSolo     = 1 << 29 // do-not-combine marker (set on recovery replays)
	flagMask     = flagKeyed | flagCombined | flagSolo
)

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")

// frameExtra returns the keyed encoding overhead (key and absorbed fields)
// and the flag bits for t, rejecting tuples that cannot encode: absorbed
// seqs on an unkeyed tuple would be silently dropped, a misaligned Absorbed
// buffer is corrupt, and a body over MaxFrameSize is refused by receivers
// (extra is still returned then, for FrameLen).
func frameExtra(t *Tuple) (extra int, flags uint32, err error) {
	if t.Key == 0 {
		if len(t.Absorbed) != 0 {
			return 0, 0, errors.New("transport: absorbed seqs on unkeyed tuple")
		}
	} else {
		extra, flags = 8, flagKeyed
		if t.Solo {
			flags |= flagSolo
		}
		if n := len(t.Absorbed); n != 0 {
			if n%8 != 0 {
				return 0, 0, fmt.Errorf("transport: absorbed buffer %d bytes, want a multiple of 8", n)
			}
			extra += 4 + n
			flags |= flagCombined
		}
	}
	if body := 8 + extra + len(t.Payload); body > MaxFrameSize {
		return extra, flags, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	return extra, flags, nil
}

// AppendFrame encodes the tuple onto dst and returns the extended slice. The
// wire format is little-endian: uint32 length word (body length in the low
// bits, keyed-extension flags in the top three), uint64 sequence number,
// then — when the matching flag is set — the 8-byte key, a uint32 absorbed
// count followed by that many 8-byte absorbed sequence numbers, and finally
// the payload.
func AppendFrame(dst []byte, t Tuple) ([]byte, error) {
	dst, err := AppendFrameHeader(dst, t)
	if err != nil {
		return dst, err
	}
	return append(dst, t.Payload...), nil
}

// AppendFrameHeader appends everything except the payload bytes for a tuple
// whose payload travels separately — the zero-copy batch encode path, where
// a large payload is handed to writev as its own iovec instead of being
// copied into the frame buffer. The length word still covers the payload.
func AppendFrameHeader(dst []byte, t Tuple) ([]byte, error) {
	extra, flags, err := frameExtra(&t)
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8+extra+len(t.Payload))|flags)
	dst = binary.LittleEndian.AppendUint64(dst, t.Seq)
	if flags&flagKeyed != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, t.Key)
	}
	if flags&flagCombined != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Absorbed)/8))
		dst = append(dst, t.Absorbed...)
	}
	return dst, nil
}

// AppendBatch encodes the tuples onto dst in order. A batch is simply the
// concatenation of its tuples' frames — there is no batch header on the
// wire — so receivers need no batch awareness.
func AppendBatch(dst []byte, ts []Tuple) ([]byte, error) {
	for i := range ts {
		var err error
		dst, err = AppendFrame(dst, ts[i])
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// FrameLen returns the encoded size of a tuple.
func FrameLen(t Tuple) int {
	extra, _, _ := frameExtra(&t)
	return frameHeaderSize + extra + len(t.Payload)
}

// decodeLengthWord splits a frame's length word into the body length, the
// flag bits and the fixed header size that follows the word (sequence
// number, optional key, optional absorbed count), enforcing the flag and
// length invariants.
func decodeLengthWord(word uint32) (body uint32, flags uint32, fixed int, err error) {
	flags = word & flagMask
	body = word &^ flagMask
	if flags != 0 && flags&flagKeyed == 0 {
		return 0, 0, 0, fmt.Errorf("transport: frame flags %#x without key flag", word>>24)
	}
	fixed = 8
	if flags&flagKeyed != 0 {
		fixed += 8
	}
	if flags&flagCombined != 0 {
		fixed += 4
	}
	if int(body) < fixed {
		return 0, 0, 0, fmt.Errorf("transport: frame body %d bytes, want >= %d", body, fixed)
	}
	if body > MaxFrameSize {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	return body, flags, fixed, nil
}

// decodeFrame decodes the frame at the head of b where it lies, into *t: the
// tuple's Absorbed and Payload are cap-limited slices of b, nothing is
// copied. size is the frame's full length, or 4 while the length word itself
// is short; size > len(b) means the frame is not all there yet and *t is
// untouched. The length word and the absorbed count are validated as soon as
// their bytes are present, before the frame they describe is waited for.
func decodeFrame(b []byte, t *Tuple) (size int, err error) {
	if len(b) < 4 {
		return 4, nil
	}
	body, flags, fixed, err := decodeLengthWord(binary.LittleEndian.Uint32(b))
	if err != nil {
		return 0, err
	}
	size = 4 + int(body)
	if len(b) < 4+fixed {
		return size, nil
	}
	off := 12
	var key uint64
	if flags&flagKeyed != 0 {
		key = binary.LittleEndian.Uint64(b[off:])
		off += 8
	}
	absorbed := 0
	if flags&flagCombined != 0 {
		count := binary.LittleEndian.Uint32(b[off:])
		off += 4
		absorbed = int(count) * 8
		if count == 0 || absorbed > size-off {
			return 0, fmt.Errorf("transport: absorbed count %d invalid for frame body %d", count, body)
		}
	}
	if len(b) < size {
		return size, nil
	}
	*t = Tuple{Seq: binary.LittleEndian.Uint64(b[4:]), Key: key, Solo: flags&flagSolo != 0}
	if absorbed > 0 {
		t.Absorbed = b[off : off+absorbed : off+absorbed]
		off += absorbed
	}
	if off < size {
		t.Payload = b[off:size:size]
	}
	return size, nil
}
