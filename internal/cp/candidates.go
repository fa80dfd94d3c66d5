package cp

// candKey orders the set-times candidates: smallest target start first,
// then boosted jobs, then the earliest job deadline (EDF). The interval
// id, which the heap entry carries beside the key, breaks the remaining
// ties, so the order is total and the minimum does not depend on how the
// container arranges equal keys: the search is the one a linear scan for
// the minimum makes.
type candKey struct {
	target  int64
	boosted int64 // 0 for a task of a boosted job, 1 otherwise
	due     int64
}

// The state of an interval in the ready set, stored in candHeap.state.
const (
	candCurrent   uint8 = iota // a candidate whose stored key is its key
	candRaised                 // a candidate whose key rose above the stored one
	candDecided                // start and resource decided
	candPostponed              // undecided, but postponed by the set-times rule
)

// candHeap is the ready set of the set-times search: an indexed binary
// min-heap holding every undecided, non-postponed interval, under a lazy
// invariant: an entry's stored key is never above its true key, and a
// decided or postponed interval's true key is above every key. A change
// that lowers a key (an insert included) sifts the entry up at once; one
// that raises it, decides the interval or postpones it only records the
// new state, and the entry stays where it is until it reaches the top,
// where top brings it up to date — re-keyed and sifted down, or removed —
// and repeats until the top is current. A current top's stored key is its
// true key and no larger than any other entry's stored key, which is no
// larger than that entry's true key; the keys are a total order (the id
// breaks ties), so the current top is the true minimum and the decision
// sequence is the one an eager heap, or a scan, makes. Keys are not
// monotone along a branch (bounds move both ways across a backtrack, a
// raised StartMin clears a postponement, the hint target is clamped to a
// falling StartMax), which is why a lowered key cannot wait.
type candHeap struct {
	heap []candEntry // heap-ordered by stored key then id
	pos  []int32     // pos[id]: index in heap, or -1 when id is not in it
	// state[id] is the interval's true state. A candidate (current or
	// raised) is always in the heap; a decided or postponed interval may
	// still be, until it reaches the top.
	state []uint8
	// undecided counts the intervals not in state candDecided; with an empty
	// heap it tells a dead end (only postponed tasks left) from a solution.
	undecided int
}

// candEntry is a heap entry: an interval and its stored key, kept in the
// heap array itself so a sift compares neighbouring memory. The boosted
// flag and the id share one word, the flag in the top bit; an interval id
// is an index into a model's interval slice, far below 2^31.
type candEntry struct {
	target int64
	due    int64
	tie    uint32 // boosted<<31 | id
}

const candIDMask = 1<<31 - 1

func newCandEntry(id int32, k candKey) candEntry {
	return candEntry{target: k.target, due: k.due, tie: uint32(k.boosted)<<31 | uint32(id)}
}

func (e *candEntry) id() int32 { return int32(e.tie & candIDMask) }

// less orders entries by (target, boosted, due, id).
func (e *candEntry) less(o *candEntry) bool {
	if e.target != o.target {
		return e.target < o.target
	}
	if eb, ob := e.tie>>31, o.tie>>31; eb != ob {
		return eb < ob
	}
	if e.due != o.due {
		return e.due < o.due
	}
	return e.tie < o.tie
}

// size prepares the heap for a model of n intervals, reusing its arrays
// when they are large enough; reset fills it.
func (h *candHeap) size(n int) {
	h.heap = emptied(h.heap, n)
	h.pos = resized(h.pos, n)
	h.state = resized(h.state, n)
	h.undecided = 0
}

// reset empties the heap and marks every interval decided.
func (h *candHeap) reset() {
	h.heap = h.heap[:0]
	for i := range h.pos {
		h.pos[i] = -1
		h.state[i] = candDecided
	}
	h.undecided = 0
}

// setState records id's true state, keeping the undecided count. Set to
// candDecided or candPostponed, an entry in the heap stays there until it
// reaches the top; put is how an interval becomes a candidate.
func (h *candHeap) setState(id int32, st uint8) {
	if was := h.state[id]; was == candDecided && st != candDecided {
		h.undecided++
	} else if was != candDecided && st == candDecided {
		h.undecided--
	}
	h.state[id] = st
}

// put records that id is a candidate whose key is k. An entry not in the
// heap is inserted, a lowered key sifts up, and a raised one is left for
// top to settle.
func (h *candHeap) put(id int32, k candKey) {
	e := newCandEntry(id, k)
	i := h.pos[id]
	if i < 0 {
		h.setState(id, candCurrent)
		h.heap = append(h.heap, e)
		h.up(len(h.heap)-1, e)
		return
	}
	switch old := &h.heap[i]; {
	case e.less(old):
		h.setState(id, candCurrent)
		h.up(int(i), e)
	case old.less(&e):
		h.setState(id, candRaised)
	default:
		h.setState(id, candCurrent)
	}
}

// top returns the minimum candidate, or -1 when there is none, after
// settling the stale entries that reach the top: a decided or postponed
// one leaves the heap, and a raised one takes the key keyOf gives it —
// its current key — and sifts down.
func (h *candHeap) top(keyOf func(id int32) candKey) int32 {
	for len(h.heap) > 0 {
		id := h.heap[0].id()
		switch h.state[id] {
		case candCurrent:
			return id
		case candRaised:
			h.state[id] = candCurrent
			h.down(newCandEntry(id, keyOf(id)))
		default:
			h.pos[id] = -1
			last := len(h.heap) - 1
			moved := h.heap[last]
			h.heap = h.heap[:last]
			if last > 0 {
				h.down(moved)
			}
		}
	}
	return -1
}

// up places e, whose key is no larger than the stored key of its interval,
// starting from heap slot i (which the interval owns or is about to take
// over).
func (h *candHeap) up(i int, e candEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		p := &h.heap[parent]
		if !e.less(p) {
			break
		}
		h.heap[i] = *p
		h.pos[p.id()] = int32(i)
		i = parent
	}
	h.heap[i] = e
	h.pos[e.id()] = int32(i)
}

// down places e, whose key is no smaller than the top's, at the top. An
// entry that reaches the top as stale usually belongs near the bottom, so
// the hole at the top first runs down to a leaf along the smaller children
// — one comparison a level, where a standard sift-down makes two — and e
// then sifts up from there, about a level on average on the batch search.
func (h *candHeap) down(e candEntry) {
	n := len(h.heap)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.heap[r].less(&h.heap[child]) {
			child = r
		}
		h.heap[i] = h.heap[child]
		h.pos[h.heap[i].id()] = int32(i)
		i = child
	}
	h.up(i, e)
}
