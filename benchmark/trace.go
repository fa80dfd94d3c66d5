package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// spanName indexes spanNames. Spans hold no pointers, so the garbage
// collector never scans the span buffer of a traced run (with string names
// it did, and that alone slowed the traced pass by 16 %).
type spanName uint8

const (
	spanRun spanName = iota
	spanReplay
	spanStep
	spanArrival
	spanComplete
	spanTimer
	spanTaskFailed
	spanResDown
	spanResUp
	spanSlowdown
	spanSolveBatch
	spanAdmission
	spanSolve
	spanPost
	spanRouteSubmit
	spanEngSubmit
	spanDrain
	spanAppend
)

// spanNames gives each span its layer (the part before the dot) and name.
var spanNames = [...]string{
	spanRun:         "run",
	spanReplay:      "replay",
	spanStep:        "sim.step",
	spanArrival:     "core.arrival",
	spanComplete:    "core.task_complete",
	spanTimer:       "core.timer",
	spanTaskFailed:  "core.task_failed",
	spanResDown:     "core.resource_down",
	spanResUp:       "core.resource_up",
	spanSlowdown:    "core.task_slowdown",
	spanSolveBatch:  "core.solve_batch",
	spanAdmission:   "core.admission",
	spanSolve:       "cp.solve",
	spanPost:        "http.post",
	spanRouteSubmit: "router.submit",
	spanEngSubmit:   "engine.submit",
	spanDrain:       "service.drain",
	spanAppend:      "wal.append",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval at a layer boundary the harness can see.
// Times are nanoseconds since the tracer was created.
type span struct {
	name   spanName
	parent int32 // index into tracer.spans; -1 for a root
	start  int64
	end    int64
	id     int64 // job, event or submission index the span belongs to
}

// tracer records spans in memory; nothing is written until the run ends.
// It is used from one goroutine at a time (the submitting goroutine, or an
// engine's run loop while the submitter is blocked in Wait).
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) top() int32 {
	if len(tr.open) == 0 {
		return -1
	}
	return tr.open[len(tr.open)-1]
}

// begin opens a span under the innermost open span.
func (tr *tracer) begin(name spanName, id int64) {
	tr.spans = append(tr.spans, span{name: name, parent: tr.top(), start: tr.now(), id: id})
	tr.open = append(tr.open, int32(len(tr.spans)-1))
}

// end closes the innermost open span.
func (tr *tracer) end() {
	i := tr.open[len(tr.open)-1]
	tr.open = tr.open[:len(tr.open)-1]
	tr.spans[i].end = tr.now()
}

// add records an already-finished span under the innermost open span; used
// for intervals reconstructed from a telemetry event's reported duration.
func (tr *tracer) add(name spanName, id, start, end int64) {
	tr.spans = append(tr.spans, span{name: name, parent: tr.top(), start: start, end: end, id: id})
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(n spanName) string {
	name := n.String()
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerTimes is the aggregate of one layer's spans.
type layerTimes struct {
	count int
	busy  int64 // sum of span durations
	self  int64 // sum of durations minus the part child spans cover
}

// selfTimes computes, per span, its duration minus the part of its interval
// covered by the union of its children (overlapping children count once,
// and a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			order = append(order, i)
		}
	}
	// Children grouped by parent, each group in start order, so one sweep
	// per parent merges overlaps.
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.parent != sb.parent {
			return sa.parent < sb.parent
		}
		return sa.start < sb.start
	})
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	var covered int64 // end of the union swept so far for the current parent
	last := int32(-1)
	for _, i := range order {
		c := spans[i]
		p := spans[c.parent]
		if c.parent != last {
			last, covered = c.parent, p.start
		}
		lo, hi := c.start, c.end
		if lo < covered {
			lo = covered
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			self[c.parent] -= hi - lo
			covered = hi
		}
	}
	return self
}

// byLayer folds spans into per-layer busy and self times.
func byLayer(spans []span) map[string]*layerTimes {
	self := selfTimes(spans)
	out := make(map[string]*layerTimes)
	for i, s := range spans {
		l := layerOf(s.name)
		lt := out[l]
		if lt == nil {
			lt = &layerTimes{}
			out[l] = lt
		}
		lt.count++
		lt.busy += s.end - s.start
		lt.self += self[i]
	}
	return out
}

// writeTrace dumps the spans as one JSON document: a name table and one
// [name, parent, start_ns, dur_ns, id] row per span.
func writeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"name\",\"parent\",\"start_ns\",\"dur_ns\",\"id\"],\"names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"spans\":[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.name, s.parent, s.start, s.end-s.start, s.id)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
