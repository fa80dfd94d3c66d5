package main

import (
	"encoding/json"
	"sync"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// timedRM is the timing decorator around a resource manager: the layer
// boundary between the simulator and the policy, measured from outside.
// The two time.Now calls per callback are the benchmark's own clock.
type timedRM struct {
	inner sim.ResourceManager
	// stats reads the MRCP-RM counters; nil for other policies.
	stats func() core.Stats

	calls int
	busy  time.Duration
	// ops holds the wall time of every callback in which a reschedule ran
	// (arrival or timer until the timetable is installed), in stream order;
	// opNodes the solver nodes that reschedule spent, which must repeat
	// exactly across repetitions of the same stream.
	ops     []time.Duration
	opNodes []int64

	rescheduled bool
	nodesSeen   int64

	tr   *tracer    // nil on the untraced pass
	sink *benchSink // nil on the untraced pass
}

// newTimedMRCP wraps an MRCP-RM manager and hooks its reschedule observer,
// which works without a telemetry sink.
func newTimedMRCP(m *core.Manager, tr *tracer, sink *benchSink) *timedRM {
	t := &timedRM{inner: m, stats: m.Stats, tr: tr, sink: sink}
	m.SetRescheduleObserver(func(int64, string, bool) { t.rescheduled = true })
	return t
}

func (t *timedRM) begin(name spanName, id int64) time.Time {
	t.rescheduled = false
	if t.tr != nil {
		t.tr.begin(name, id)
	}
	return time.Now()
}

func (t *timedRM) end(start time.Time) {
	d := time.Since(start)
	if t.tr != nil {
		if t.sink != nil {
			t.sink.closeSolve(t.tr)
		}
		t.tr.end()
	}
	t.calls++
	t.busy += d
	if t.rescheduled {
		t.ops = append(t.ops, d)
		nodes := t.stats().SolverNodes
		t.opNodes = append(t.opNodes, nodes-t.nodesSeen)
		t.nodesSeen = nodes
	}
}

func (t *timedRM) Name() string { return t.inner.Name() }

func (t *timedRM) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	s := t.begin(spanArrival, int64(j.ID))
	err := t.inner.OnJobArrival(ctx, j)
	t.end(s)
	return err
}

func (t *timedRM) OnTaskComplete(ctx sim.Context, tk *workload.Task) error {
	s := t.begin(spanComplete, int64(tk.JobID))
	err := t.inner.OnTaskComplete(ctx, tk)
	t.end(s)
	return err
}

func (t *timedRM) OnTimer(ctx sim.Context) error {
	s := t.begin(spanTimer, ctx.Now())
	err := t.inner.OnTimer(ctx)
	t.end(s)
	return err
}

func (t *timedRM) OnTaskFailed(ctx sim.Context, tk *workload.Task, res int) error {
	s := t.begin(spanTaskFailed, int64(tk.JobID))
	err := t.inner.OnTaskFailed(ctx, tk, res)
	t.end(s)
	return err
}

func (t *timedRM) OnResourceDown(ctx sim.Context, res int, killed, evacuated []*workload.Task) error {
	s := t.begin(spanResDown, int64(res))
	err := t.inner.OnResourceDown(ctx, res, killed, evacuated)
	t.end(s)
	return err
}

func (t *timedRM) OnResourceUp(ctx sim.Context, res int) error {
	s := t.begin(spanResUp, int64(res))
	err := t.inner.OnResourceUp(ctx, res)
	t.end(s)
	return err
}

func (t *timedRM) OnTaskSlowdown(ctx sim.Context, tk *workload.Task) error {
	s := t.begin(spanSlowdown, int64(tk.JobID))
	err := t.inner.OnTaskSlowdown(ctx, tk)
	t.end(s)
	return err
}

// solveEvent is the part of the manager's "solve" telemetry event the
// benchmark reads. obs.Field values are unexported, so events are rendered
// with Event.AppendJSON and decoded again; this happens on the traced pass
// only.
type solveEvent struct {
	Status         string  `json:"status"`
	Nodes          int64   `json:"nodes"`
	Backtracks     int64   `json:"backtracks"`
	Propagations   int64   `json:"propagations"`
	ImprovePasses  int     `json:"improve_passes"`
	ImproveAccepts int     `json:"improve_accepts"`
	NodeLimitHit   bool    `json:"node_limit_hit"`
	TimeLimitHit   bool    `json:"time_limit_hit"`
	ModelTasks     int     `json:"model_tasks"`
	WallSolve      float64 `json:"wall_solve"`
	WallFirst      float64 `json:"wall_first_solution"`
}

// benchSink is the benchmark's own obs.Sink: it counts events, keeps every
// "solve" event, and remembers when the first solver-layer event of a
// callback arrived — the manager emits them right after the solve returns,
// so that instant minus the event's wall_solve brackets the cp.solve span.
type benchSink struct {
	mu     sync.Mutex
	events int
	solves []solveEvent
	// usefulNodes sums, per solve, the node count at its last incumbent.
	usefulNodes int64
	// undecoded counts solver events whose JSON rendering did not decode;
	// the run reports them as failures rather than losing data silently.
	undecoded int

	lastObjNodes int64
	solveEnd     time.Time
	// pendingWall is the wall_solve (ms) of a solve event not yet turned
	// into a span; negative when there is none.
	pendingWall float64
	buf         []byte
}

func newBenchSink() *benchSink { return &benchSink{pendingWall: -1} }

func (s *benchSink) Emit(e *obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	if e.Layer != obs.LayerSolver {
		return
	}
	if s.solveEnd.IsZero() {
		s.solveEnd = time.Now()
	}
	s.buf = e.AppendJSON(s.buf[:0])
	switch e.Kind {
	case "objective":
		var o struct {
			Nodes int64 `json:"nodes"`
		}
		if json.Unmarshal(s.buf, &o) == nil {
			s.lastObjNodes = o.Nodes
		}
	case "solve":
		var ev solveEvent
		if json.Unmarshal(s.buf, &ev) == nil {
			s.solves = append(s.solves, ev)
			s.usefulNodes += s.lastObjNodes
			s.pendingWall = ev.WallSolve
		}
		s.lastObjNodes = 0
	}
}

// closeSolve turns the solve event seen during the callback that is about
// to end (if any) into a cp.solve span under it.
func (s *benchSink) closeSolve(tr *tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingWall >= 0 {
		end := int64(s.solveEnd.Sub(tr.t0))
		tr.add(spanSolve, int64(len(s.solves)-1), end-int64(s.pendingWall*1e6), end)
		s.pendingWall = -1
	}
	s.solveEnd = time.Time{}
}
