// Package trace records the executed schedule of a simulation run — every
// task start and finish with its resource assignment — and exports it as
// CSV or JSON, or digests it into slot-occupancy profiles. It plugs into
// the simulator through sim.Simulator.AddObserver.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

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

// GanttRows renders one text row per resource with job digits marking
// occupancy — a compact visual of the executed schedule for CLI output.
func (r *Recorder) GanttRows(cluster sim.Cluster, width int) []string {
	if width <= 0 || len(r.events) == 0 {
		return nil
	}
	var maxEnd int64
	type placed struct {
		from, to int64
		job      int
		res      int
	}
	open := map[string]Event{}
	var spans []placed
	for _, e := range r.events {
		switch e.Kind {
		case TaskStart:
			open[e.TaskID] = e
		case TaskFinish, TaskFail, TaskKill:
			if st, ok := open[e.TaskID]; ok {
				spans = append(spans, placed{st.TimeMS, e.TimeMS, e.JobID, e.Resource})
				delete(open, e.TaskID)
				if e.TimeMS > maxEnd {
					maxEnd = e.TimeMS
				}
			}
		}
	}
	if maxEnd == 0 {
		return nil
	}
	rows := make([][]byte, cluster.NumResources)
	for i := range rows {
		rows[i] = []byte(repeat('.', width))
	}
	scale := float64(width) / float64(maxEnd)
	for _, sp := range spans {
		from := int(float64(sp.from) * scale)
		to := int(float64(sp.to) * scale)
		if to <= from {
			to = from + 1
		}
		mark := byte('0' + sp.job%10)
		for x := from; x < to && x < width; x++ {
			rows[sp.res][x] = mark
		}
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = fmt.Sprintf("r%-3d %s", i, row)
	}
	return out
}

func repeat(b byte, n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b
	}
	return string(buf)
}
