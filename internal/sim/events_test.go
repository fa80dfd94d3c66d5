package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedHeap is the container/heap event queue the typed heap replaced, kept
// as the pop-order oracle.
type boxedHeap []event

func (h boxedHeap) Len() int { return len(h) }

func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}

func (h boxedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *boxedHeap) Push(x any) { *h = append(*h, x.(event)) }

func (h *boxedHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventQueueMatchesContainerHeap drives the typed heap and the oracle
// through the same random interleavings of pushes and pops, with few enough
// distinct (at, kind) pairs that most comparisons fall through to seq.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var oracle boxedHeap
		var seq int64
		popBoth := func(step int) {
			got, ok := q.pop()
			if !ok {
				t.Fatalf("seed %d step %d: typed heap empty, oracle holds %d", seed, step, len(oracle))
			}
			if want := heap.Pop(&oracle).(event); got != want {
				t.Fatalf("seed %d step %d: popped %+v, oracle %+v", seed, step, got, want)
			}
		}
		for step := 0; step < 4000; step++ {
			// Pushes lead early and pops late, so the heap grows deep and
			// then drains through every size.
			if len(oracle) == 0 || rng.Intn(4000) > step {
				e := event{at: int64(rng.Intn(6)), kind: eventKind(rng.Intn(int(evTaskStart) + 1)),
					taskKey: step, version: int64(rng.Intn(3))}
				q.push(e)
				seq++
				e.seq = seq
				heap.Push(&oracle, e)
			} else {
				popBoth(step)
			}
			if q.empty() != (len(oracle) == 0) || len(q.h) != len(oracle) {
				t.Fatalf("seed %d step %d: sizes diverged: %d vs %d", seed, step, len(q.h), len(oracle))
			}
		}
		for len(oracle) > 0 {
			popBoth(-1)
		}
		if _, ok := q.pop(); ok {
			t.Fatalf("seed %d: typed heap outlived the oracle", seed)
		}
	}
}

// TestEventQueueSteadyStateAllocatesNothing: once the backing array has
// grown to the run's high-water mark a push and a pop cost no allocation
// (container/heap boxed the event once on each side).
func TestEventQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q eventQueue
	for i := 0; i < 64; i++ {
		q.push(event{at: int64(i % 7), kind: evTaskStart, taskKey: i})
	}
	at := int64(7)
	allocs := testing.AllocsPerRun(1000, func() {
		at++
		q.push(event{at: at % 11, kind: evTaskFinish})
		if _, ok := q.pop(); !ok {
			t.Fatal("pop on a non-empty queue failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("push+pop at steady capacity allocates %.1f times, want 0", allocs)
	}
}

func TestEventQueueTimeOrder(t *testing.T) {
	var q eventQueue
	q.push(event{at: 30, kind: evJobArrival})
	q.push(event{at: 10, kind: evJobArrival})
	q.push(event{at: 20, kind: evJobArrival})
	var got []int64
	for {
		e, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, e.at)
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v", got)
		}
	}
}

func TestEventQueueKindPriorityAtSameTime(t *testing.T) {
	var q eventQueue
	// Insert in the wrong order; pops must honor the kind priority:
	// finish < timer < arrival < start.
	q.push(event{at: 5, kind: evTaskStart})
	q.push(event{at: 5, kind: evJobArrival})
	q.push(event{at: 5, kind: evTimer})
	q.push(event{at: 5, kind: evTaskFinish})
	want := []eventKind{evTaskFinish, evTimer, evJobArrival, evTaskStart}
	for i, k := range want {
		e, ok := q.pop()
		if !ok || e.kind != k {
			t.Fatalf("pop %d: kind %v, want %v", i, e.kind, k)
		}
	}
}

func TestEventQueueStableWithinKind(t *testing.T) {
	var q eventQueue
	for i := 0; i < 5; i++ {
		q.push(event{at: 7, kind: evTaskFinish, taskKey: i})
	}
	for i := 0; i < 5; i++ {
		e, _ := q.pop()
		if e.taskKey != i {
			t.Fatalf("insertion order not preserved: got key %d at pop %d", e.taskKey, i)
		}
	}
}

func TestEventQueueEmpty(t *testing.T) {
	var q eventQueue
	if !q.empty() {
		t.Fatal("fresh queue not empty")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	q.push(event{at: 1})
	if q.empty() {
		t.Fatal("queue with one event reports empty")
	}
}
