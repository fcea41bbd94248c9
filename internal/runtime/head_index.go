package runtime

import "math"

// headIndexEmpty is the key of a stream whose reorder heap is empty.
// Sequence numbers count tuples from 0, so MaxUint64 is never a live head.
const headIndexEmpty = math.MaxUint64

// headIndex is an indexed binary min-heap over the per-stream reorder-heap
// heads — the merge loop's tournament tree. Instead of scanning every
// stream's head per release (O(streams), the dominant cost at 64+
// connections), the loop asks min() for the stream whose head sequence is
// lowest and fixes up only that stream's key after popping, O(log streams).
//
// Ties break toward the lower stream id, which reproduces the old
// lowest-id-first scan order exactly — the sharded-vs-locked equivalence
// suite pins release order byte-for-byte on this property.
//
// Consumer-private: only the merge loop touches it, so no synchronization.
type headIndex struct {
	key []uint64 // per stream id: head sequence, or headIndexEmpty
	ids []int    // heap array of stream ids
	pos []int    // stream id -> index in ids
}

func newHeadIndex(n int) *headIndex {
	h := &headIndex{
		key: make([]uint64, n),
		ids: make([]int, n),
		pos: make([]int, n),
	}
	for i := 0; i < n; i++ {
		h.key[i] = headIndexEmpty
		h.ids[i] = i
		h.pos[i] = i
	}
	return h
}

// less orders stream a before stream b by (key, id).
func (h *headIndex) less(a, b int) bool {
	return h.key[a] < h.key[b] || (h.key[a] == h.key[b] && a < b)
}

// min returns the stream id with the lowest head sequence, or -1 when every
// stream's heap is empty.
func (h *headIndex) min() int {
	if h.minKey() == headIndexEmpty {
		return -1
	}
	return h.ids[0]
}

// minKey returns the lowest head sequence, headIndexEmpty when every heap is
// empty.
func (h *headIndex) minKey() uint64 { return h.key[h.ids[0]] }

// second returns the lowest key among every stream but min()'s: the smaller
// of the root's two children, each of which heads its subtree. O(1).
func (h *headIndex) second() uint64 {
	switch len(h.ids) {
	case 1:
		return headIndexEmpty
	case 2:
		return h.key[h.ids[1]]
	}
	return min(h.key[h.ids[1]], h.key[h.ids[2]])
}

// update sets stream id's key and restores heap order.
func (h *headIndex) update(id int, key uint64) {
	old := h.key[id]
	if key == old {
		return
	}
	h.key[id] = key
	if key < old {
		h.up(h.pos[id])
	} else {
		h.down(h.pos[id])
	}
}

func (h *headIndex) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = i
	h.pos[h.ids[j]] = j
}

func (h *headIndex) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.ids[i], h.ids[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *headIndex) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h.ids) && h.less(h.ids[l], h.ids[min]) {
			min = l
		}
		if r < len(h.ids) && h.less(h.ids[r], h.ids[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}
