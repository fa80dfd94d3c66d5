package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

func runTraced(t *testing.T) (*Recorder, sim.Cluster) {
	t.Helper()
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	j := &workload.Job{ID: 0, Arrival: 0, EarliestStart: 0, Deadline: 1_000_000}
	j.MapTasks = []*workload.Task{
		{ID: "t0_m1", JobID: 0, Type: workload.MapTask, Exec: 5000, Req: 1},
		{ID: "t0_m2", JobID: 0, Type: workload.MapTask, Exec: 7000, Req: 1},
	}
	j.ReduceTasks = []*workload.Task{
		{ID: "t0_r1", JobID: 0, Type: workload.ReduceTask, Exec: 3000, Req: 1},
	}
	cfg := core.DefaultConfig()
	cfg.SolveTimeLimit = 0
	s, err := sim.New(cluster, core.New(cluster, cfg), []*workload.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	s.AddObserver(rec)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rec, cluster
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	rec, _ := runTraced(t)
	// 3 tasks × (start + finish).
	if rec.Len() != 6 {
		t.Fatalf("%d events, want 6", rec.Len())
	}
	starts, finishes := 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case TaskStart:
			starts++
		case TaskFinish:
			finishes++
		}
	}
	if starts != 3 || finishes != 3 {
		t.Fatalf("starts=%d finishes=%d", starts, finishes)
	}
}

func TestCSVExport(t *testing.T) {
	rec, _ := runTraced(t)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 6 events
		t.Fatalf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_ms,kind,task") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(buf.String(), "t0_r1") {
		t.Fatal("reduce task missing from CSV")
	}
}

func TestJSONExportRoundTrips(t *testing.T) {
	rec, _ := runTraced(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != rec.Len() {
		t.Fatalf("round trip lost events: %d vs %d", len(events), rec.Len())
	}
}

func TestGanttRows(t *testing.T) {
	rec, cluster := runTraced(t)
	rows := rec.GanttRows(cluster, 40)
	if len(rows) != 5 { // header + 2 resources × 2 pools
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.HasPrefix(rows[1], "r0/map     ") || !strings.HasPrefix(rows[4], "r1/red     ") {
		t.Fatalf("rows not one per resource and pool:\n%s", strings.Join(rows, "\n"))
	}
	joined := strings.Join(rows, "\n")
	if !strings.Contains(joined, "0") {
		t.Fatal("no occupancy marks in gantt")
	}
	if rec.GanttRows(cluster, 0) != nil {
		t.Fatal("zero width should return nil")
	}
	if NewRecorder().GanttRows(cluster, 40) != nil {
		t.Fatal("empty recorder should return nil")
	}
}

// A map and a reduce attempt that overlap on one resource occupy different
// pools, so each keeps its own marks.
func TestGanttRowsSeparatePools(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	m := &workload.Task{ID: "t1_m1", JobID: 1, Type: workload.MapTask, Exec: 10_000}
	r := &workload.Task{ID: "t2_r1", JobID: 2, Type: workload.ReduceTask, Exec: 10_000}
	rec := NewRecorder()
	rec.TaskStarted(0, m, &workload.Job{ID: 1}, 0)
	rec.TaskStarted(0, r, &workload.Job{ID: 2}, 0)
	rec.TaskFinished(10_000, m, &workload.Job{ID: 1}, 0)
	rec.TaskFinished(10_000, r, &workload.Job{ID: 2}, 0)
	want := []string{
		"gantt (0..10s, one char ≈ 1.0s; digit = job id mod 10)",
		"r0/map     1111111111",
		"r0/red     2222222222",
	}
	if got := rec.GanttRows(cluster, 10); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("gantt\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
