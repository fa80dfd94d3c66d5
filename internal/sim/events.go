// Package sim is the discrete event simulation engine used for the paper's
// performance evaluation (Section VI). It executes a finite stream of
// MapReduce jobs against a simulated cluster under a pluggable resource
// manager, enforcing the problem's validity rules (slot capacities, earliest
// start times, reduce-after-map precedence) and collecting the paper's
// performance metrics O, N, T, and P.
//
// Simulated time is int64 milliseconds. Solver wall-clock time is recorded
// as the overhead metric O but does not advance simulated time, matching
// the paper's setup where MRCP-RM runs on a dedicated CPU and O/T stays
// below 0.1%.
package sim

type eventKind int

// Priorities at equal timestamps: finishes and failures free slots first,
// then resource state flips (so a manager invoked at T sees current
// availability), then the resource manager reacts (timers, arrivals), and
// only then do new tasks start, so a manager invoked at time T can still
// reschedule a task that was planned to start at T.
const (
	evTaskFinish eventKind = iota
	evTaskFail
	evResourceDown
	evResourceUp
	evTimer
	evJobArrival
	evTaskStart
)

type event struct {
	at      int64
	kind    eventKind
	seq     int64 // tie-break for determinism
	jobIdx  int   // evJobArrival
	taskKey int   // evTaskFinish / evTaskFail / evTaskStart
	version int64 // evTaskStart / evTaskFinish / evTaskFail: stale-event detection
	res     int   // evResourceDown / evResourceUp
}

// before is the queue's strict total order: time, then kind priority, then
// insertion sequence. seq is unique, so no two events compare equal and the
// pop order cannot depend on how the heap is laid out.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events stored by value: pushing and
// popping at steady capacity allocates nothing.
type eventQueue struct {
	h   []event
	seq int64
}

func (q *eventQueue) push(e event) {
	q.seq++
	e.seq = q.seq
	q.h = append(q.h, e)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (q *eventQueue) pop() (event, bool) {
	n := len(q.h)
	if n == 0 {
		return event{}, false
	}
	h := q.h
	top := h[0]
	n--
	last := h[n]
	q.h = h[:n]
	// Sift the former last element down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top, true
}

func (q *eventQueue) empty() bool { return len(q.h) == 0 }
