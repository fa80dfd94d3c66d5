// Package trace records the executed schedule of a simulation run — every
// task start and finish with its resource assignment — and exports it as
// CSV or JSON, or renders it as an ASCII Gantt chart. It plugs into
// the simulator through sim.Simulator.AddObserver.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// EventKind distinguishes task lifecycle and fault events.
type EventKind string

// Event kinds. The first two are the fault-free task lifecycle; the rest
// are the failure-path events introduced with the fault-injection layer.
const (
	TaskStart  EventKind = "start"
	TaskFinish EventKind = "finish"
	// TaskFail records a running attempt failing mid-execution; TaskKill a
	// running attempt killed by a resource outage.
	TaskFail EventKind = "fail"
	TaskKill EventKind = "kill"
	// ResourceDown / ResourceUp bracket a resource outage. They carry no
	// task: TaskID is empty and JobID is -1.
	ResourceDown EventKind = "down"
	ResourceUp   EventKind = "up"
)

// Event is one recorded schedule event. For resource outage events
// (ResourceDown/ResourceUp) the task fields are empty and JobID is -1.
type Event struct {
	TimeMS   int64     `json:"timeMs"`
	Kind     EventKind `json:"kind"`
	TaskID   string    `json:"taskId,omitempty"`
	JobID    int       `json:"jobId"`
	TaskType string    `json:"taskType,omitempty"`
	Resource int       `json:"resource"`
	ExecMS   int64     `json:"execMs"`
}

// Recorder implements sim.Observer and accumulates the run's task and
// outage events in order; it ignores placements, slowdowns and job-level
// events.
type Recorder struct {
	sim.NopObserver
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// TaskStarted implements sim.Observer.
func (r *Recorder) TaskStarted(now int64, t *workload.Task, j *workload.Job, res int) {
	r.events = append(r.events, Event{
		TimeMS: now, Kind: TaskStart, TaskID: t.ID, JobID: j.ID,
		TaskType: t.Type.String(), Resource: res, ExecMS: t.Exec,
	})
}

// TaskFinished implements sim.Observer.
func (r *Recorder) TaskFinished(now int64, t *workload.Task, j *workload.Job, res int) {
	r.events = append(r.events, Event{
		TimeMS: now, Kind: TaskFinish, TaskID: t.ID, JobID: j.ID,
		TaskType: t.Type.String(), Resource: res, ExecMS: t.Exec,
	})
}

// TaskFailed implements sim.Observer: a running attempt failed
// mid-execution.
func (r *Recorder) TaskFailed(now int64, t *workload.Task, j *workload.Job, res int) {
	r.events = append(r.events, Event{
		TimeMS: now, Kind: TaskFail, TaskID: t.ID, JobID: j.ID,
		TaskType: t.Type.String(), Resource: res, ExecMS: t.Exec,
	})
}

// TaskKilled implements sim.Observer: a resource outage killed a
// running attempt.
func (r *Recorder) TaskKilled(now int64, t *workload.Task, j *workload.Job, res int) {
	r.events = append(r.events, Event{
		TimeMS: now, Kind: TaskKill, TaskID: t.ID, JobID: j.ID,
		TaskType: t.Type.String(), Resource: res, ExecMS: t.Exec,
	})
}

// ResourceDown implements sim.Observer: an outage began.
func (r *Recorder) ResourceDown(now int64, res int) {
	r.events = append(r.events, Event{TimeMS: now, Kind: ResourceDown, JobID: -1, Resource: res})
}

// ResourceUp implements sim.Observer: an outage ended.
func (r *Recorder) ResourceUp(now int64, res int) {
	r.events = append(r.events, Event{TimeMS: now, Kind: ResourceUp, JobID: -1, Resource: res})
}

// Events returns the recorded events in simulation order.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// WriteCSV exports the events with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_ms", "kind", "task", "job", "type", "resource", "exec_ms"}); err != nil {
		return err
	}
	for _, e := range r.events {
		rec := []string{
			strconv.FormatInt(e.TimeMS, 10),
			string(e.Kind),
			e.TaskID,
			strconv.Itoa(e.JobID),
			e.TaskType,
			strconv.Itoa(e.Resource),
			strconv.FormatInt(e.ExecMS, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports the events as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.events)
}

// GanttRows renders the recorded run as Gantt does, one span per attempt:
// from its start to its finish, failure or kill.
func (r *Recorder) GanttRows(cluster sim.Cluster, width int) []string {
	open := map[string]Event{}
	var spans []Span
	for _, e := range r.events {
		switch e.Kind {
		case TaskStart:
			open[e.TaskID] = e
		case TaskFinish, TaskFail, TaskKill:
			if st, ok := open[e.TaskID]; ok {
				pool := workload.MapTask
				if e.TaskType == workload.ReduceTask.String() {
					pool = workload.ReduceTask
				}
				spans = append(spans, Span{Resource: e.Resource, Pool: pool,
					Start: st.TimeMS, End: e.TimeMS, Job: e.JobID})
				delete(open, e.TaskID)
			}
		}
	}
	return Gantt(cluster, spans, width)
}

// Span is one task occupying a resource's map or reduce pool.
type Span struct {
	Resource   int
	Pool       workload.TaskType
	Start, End int64
	Job        int
}

// Gantt renders spans as an ASCII chart width columns wide: a header with
// the time scale, then one row per resource and pool ("r3/map", "r3/red")
// in which '0'..'9' mark the job (ID mod 10) occupying each column. A pool
// has a row when the cluster gives it slots or a span uses it. Nil when
// width <= 0 or no span ends after time 0.
func Gantt(cluster sim.Cluster, spans []Span, width int) []string {
	var maxEnd int64
	for _, sp := range spans {
		maxEnd = max(maxEnd, sp.End)
	}
	if width <= 0 || maxEnd == 0 {
		return nil
	}
	blank := func() []byte { return []byte(strings.Repeat(".", width)) }
	slots := [2]int64{cluster.MapSlots, cluster.ReduceSlots}
	rows := make([][]byte, 2*cluster.NumResources) // row 2r+pool
	for i := range rows {
		if slots[i%2] > 0 {
			rows[i] = blank()
		}
	}
	scale := float64(width) / float64(maxEnd)
	for _, sp := range spans {
		row := &rows[2*sp.Resource+int(sp.Pool)]
		if *row == nil {
			*row = blank()
		}
		from := int(float64(sp.Start) * scale)
		to := max(int(float64(sp.End)*scale), from+1)
		for x := from; x < to && x < width; x++ {
			(*row)[x] = byte('0' + sp.Job%10)
		}
	}
	out := []string{fmt.Sprintf("gantt (0..%.0fs, one char ≈ %.1fs; digit = job id mod 10)",
		float64(maxEnd)/1000, float64(maxEnd)/1000/float64(width))}
	for i, row := range rows {
		if row != nil {
			key := fmt.Sprintf("r%d/%s", i/2, [2]string{"map", "red"}[i%2])
			out = append(out, fmt.Sprintf("%-10s %s", key, row))
		}
	}
	return out
}
