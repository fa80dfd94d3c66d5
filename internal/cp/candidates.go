package cp

// candKey orders the set-times candidates: smallest target start first,
// then boosted jobs, then the rank of the ordering strategy. The interval
// id — the heap entry itself — breaks the remaining ties, so the order is
// total and the minimum does not depend on how the container arranges
// equal keys: the search is the one a linear scan for the minimum makes.
type candKey struct {
	target  int64
	boosted int64 // 0 for a task of a boosted job, 1 otherwise
	order   int64
}

// States of an interval that is not in the heap, stored in candHeap.pos.
const (
	candDecided   = -1 // start and resource decided
	candPostponed = -2 // undecided, but postponed by the set-times rule
)

// candHeap is the ready set of the set-times search: an indexed binary
// min-heap of the undecided, non-postponed intervals. Keys are not monotone
// along a branch (bounds move both ways across a backtrack, a raised
// StartMin clears a postponement, the hint target is clamped to a falling
// StartMax), so an entry is re-keyed in place whenever its interval changes
// rather than lazily on extraction.
type candHeap struct {
	heap []int32   // interval ids, heap-ordered by key then id
	pos  []int32   // pos[id]: index in heap, or candDecided / candPostponed
	key  []candKey // key[id], meaningful while pos[id] >= 0
	// undecided counts the intervals not in state candDecided; with an empty
	// heap it tells a dead end (only postponed tasks left) from a solution.
	undecided int
}

// size prepares the heap for a model of n intervals, reusing its arrays
// when they are large enough; reset fills it.
func (h *candHeap) size(n int) {
	h.heap = emptied(h.heap, n)
	h.pos = resized(h.pos, n)
	h.key = resized(h.key, n)
	h.undecided = 0
}

// reset empties the heap and marks every interval decided.
func (h *candHeap) reset() {
	h.heap = h.heap[:0]
	for i := range h.pos {
		h.pos[i] = candDecided
	}
	h.undecided = 0
}

func (h *candHeap) less(a, b int32) bool {
	ka, kb := &h.key[a], &h.key[b]
	if ka.target != kb.target {
		return ka.target < kb.target
	}
	if ka.boosted != kb.boosted {
		return ka.boosted < kb.boosted
	}
	if ka.order != kb.order {
		return ka.order < kb.order
	}
	return a < b
}

// put makes id a candidate with key k, or re-keys it if it already is one.
func (h *candHeap) put(id int32, k candKey) {
	h.key[id] = k
	i := int(h.pos[id])
	if i < 0 {
		if i == candDecided {
			h.undecided++
		}
		i = len(h.heap)
		h.heap = append(h.heap, id)
	}
	h.fix(i, id)
}

// drop takes id out of the heap (if it is in) and leaves it in the given
// non-candidate state.
func (h *candHeap) drop(id int32, state int32) {
	i := h.pos[id]
	if i == state {
		return
	}
	if i == candDecided {
		h.undecided++
	} else if state == candDecided {
		h.undecided--
	}
	h.pos[id] = state
	if i < 0 {
		return
	}
	last := len(h.heap) - 1
	moved := h.heap[last]
	h.heap = h.heap[:last]
	if int(i) < last {
		h.fix(int(i), moved)
	}
}

// fix places id, whose key may have moved either way, starting from heap
// slot i (which id owns or is about to take over).
func (h *candHeap) fix(i int, id int32) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h.heap[parent]
		if !h.less(id, p) {
			break
		}
		h.heap[i], h.pos[p] = p, int32(i)
		i = parent
	}
	for {
		child := 2*i + 1
		if child >= len(h.heap) {
			break
		}
		if r := child + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[child]) {
			child = r
		}
		c := h.heap[child]
		if !h.less(c, id) {
			break
		}
		h.heap[i], h.pos[c] = c, int32(i)
		i = child
	}
	h.heap[i], h.pos[id] = id, int32(i)
}
