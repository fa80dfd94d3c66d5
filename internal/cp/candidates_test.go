package cp

import (
	"fmt"
	"testing"

	"mrcprm/internal/stats"
)

// candOp is one step of a random ready-set workload: a put of key, a drop
// to state, or (top) a read of the minimum.
type candOp struct {
	id    int32
	top   bool
	drop  bool
	state uint8
	key   candKey
}

// candModel is the ready set as a linear scan sees it: every interval's
// true state and, for a candidate, its true key.
type candModel struct {
	state []uint8
	key   []candKey
}

// scanKey is id's full key under k, in the form pickScan compares.
func (m *candModel) scanKey(id int32) [4]int64 {
	k := m.key[id]
	return [4]int64{k.target, k.boosted, k.order, int64(id)}
}

// storedKey is the key the heap stores for entry e, in the same form.
func storedKey(e candEntry) [4]int64 {
	return [4]int64{e.target, int64(e.tie >> 31), e.order, int64(e.id())}
}

func (m *candModel) min() int32 {
	best := int32(-1)
	for id, st := range m.state {
		if st != candCurrent {
			continue
		}
		if best < 0 || lessKey(m.scanKey(int32(id)), m.scanKey(best)) {
			best = int32(id)
		}
	}
	return best
}

func (m *candModel) undecided() int {
	n := 0
	for _, st := range m.state {
		if st != candDecided {
			n++
		}
	}
	return n
}

// randomCandOps draws a sequence of ready-set operations over n intervals
// from a small key space, so ties on every key field are common and the id
// tie-break decides them.
func randomCandOps(rng *stats.Stream, n, steps int) []candOp {
	ops := make([]candOp, 0, steps)
	for range steps {
		op := candOp{id: int32(rng.IntN(n))}
		switch r := rng.IntN(10); {
		case r < 2:
			op.top = true
		case r < 4:
			op.drop = true
			op.state = candDecided
			if rng.IntN(2) == 0 {
				op.state = candPostponed
			}
		default:
			op.key = candKey{target: int64(rng.IntN(12)), boosted: int64(rng.IntN(2)), order: int64(rng.IntN(4))}
		}
		ops = append(ops, op)
	}
	return ops
}

// The lazy heap returns what a linear scan for the minimum returns, after
// any sequence of puts, drops and reads. The batch search makes no in-place
// decrease (a backtrack puts a raised key back to the one still stored), so
// this test is what covers that arm; it also covers re-inserts of entries
// dropped lazily (still in the heap) and postponed intervals turning
// candidates again.
func TestCandHeapMatchesScan(t *testing.T) {
	const n = 48
	var lowered, reinserted, unpostponed, settled, raised int
	for seed := uint64(0); seed < 20; seed++ {
		rng := stats.NewStream(4401, seed)
		var h candHeap
		h.size(n)
		h.reset()
		ref := &candModel{state: make([]uint8, n), key: make([]candKey, n)}
		for i := range ref.state {
			ref.state[i] = candDecided
		}
		keyOf := func(id int32) candKey {
			if ref.state[id] != candCurrent {
				t.Fatalf("seed %d: top settled interval %d, state %d in the scan", seed, id, ref.state[id])
			}
			settled++
			return ref.key[id]
		}
		for step, op := range randomCandOps(rng, n, 3000) {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch {
			case op.top:
				if got, want := h.top(keyOf), ref.min(); got != want {
					t.Fatalf("%s: top = %d, scan finds %d", label, got, want)
				}
			case op.drop:
				h.setState(op.id, op.state)
				ref.state[op.id] = op.state
			default:
				if p := h.pos[op.id]; p >= 0 {
					was, now := storedKey(h.heap[p]), storedKey(newCandEntry(op.id, op.key))
					switch {
					case h.state[op.id] >= candDecided:
						reinserted++
					case lessKey(now, was):
						lowered++
					case lessKey(was, now):
						raised++
					}
				}
				if ref.state[op.id] == candPostponed {
					unpostponed++
				}
				h.put(op.id, op.key)
				ref.state[op.id], ref.key[op.id] = candCurrent, op.key
			}
			checkCandInvariant(t, label, &h, ref)
		}
	}
	t.Logf("%d in-place decreases, %d raises, %d re-inserts after a lazy drop, %d postponed → candidate, %d raised entries settled at the top",
		lowered, raised, reinserted, unpostponed, settled)
	for what, count := range map[string]int{
		"in-place key decreases":     lowered,
		"raised keys":                raised,
		"re-inserts after lazy drop": reinserted,
		"postponed → candidate":      unpostponed,
		"raised entries settled":     settled,
	} {
		if count == 0 {
			t.Errorf("the sequences exercised no %s", what)
		}
	}
}

// checkCandInvariant holds h to the lazy invariant against the scan's true
// states: every candidate is in the heap, a stored key is never above the
// true key and equals it for a current entry, the heap is ordered by stored
// key then id, pos indexes it, and the undecided count is the scan's.
func checkCandInvariant(t *testing.T, label string, h *candHeap, ref *candModel) {
	t.Helper()
	for id, st := range ref.state {
		p := h.pos[id]
		raised := h.state[id] == candRaised
		if got := h.state[id]; got != st && !(raised && st == candCurrent) {
			t.Fatalf("%s: interval %d in state %d, scan says %d", label, id, got, st)
		}
		if st != candCurrent {
			continue
		}
		if p < 0 || h.heap[p].id() != int32(id) {
			t.Fatalf("%s: candidate %d not in the heap (pos %d)", label, id, p)
		}
		stored, truth := storedKey(h.heap[p]), ref.scanKey(int32(id))
		switch {
		case lessKey(truth, stored):
			t.Fatalf("%s: candidate %d stored above its true key", label, id)
		case stored != truth && !raised:
			t.Fatalf("%s: candidate %d current with a stale key", label, id)
		}
	}
	for i, e := range h.heap {
		if h.pos[e.id()] != int32(i) {
			t.Fatalf("%s: pos[%d] = %d, heap slot %d", label, e.id(), h.pos[e.id()], i)
		}
		if i > 0 && lessKey(storedKey(e), storedKey(h.heap[(i-1)/2])) {
			t.Fatalf("%s: heap order broken at slot %d", label, i)
		}
	}
	if got, want := h.undecided, ref.undecided(); got != want {
		t.Fatalf("%s: undecided = %d, scan counts %d", label, got, want)
	}
}

// At steady capacity the ready set allocates nothing: a reset and a full
// workload reuse the arrays size grew.
func TestCandHeapAllocations(t *testing.T) {
	const n = 256
	ops := randomCandOps(stats.NewStream(4402, 1), n, 4000)
	var h candHeap
	h.size(n)
	keys := make([]candKey, n)
	keyOf := func(id int32) candKey { return keys[id] }
	run := func() {
		h.reset()
		for _, op := range ops {
			switch {
			case op.top:
				h.top(keyOf)
			case op.drop:
				h.setState(op.id, op.state)
			default:
				keys[op.id] = op.key
				h.put(op.id, op.key)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a ready-set workload at steady capacity made %.0f allocations, want 0", allocs)
	}
}
