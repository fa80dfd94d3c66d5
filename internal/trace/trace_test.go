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

func TestSlotProfile(t *testing.T) {
	rec, _ := runTraced(t)
	prof := rec.SlotProfile(workload.MapTask)
	// Two maps in parallel [0,5000) and [0,7000): busy 2 then 1.
	if len(prof) != 2 {
		t.Fatalf("profile %+v", prof)
	}
	if prof[0].Busy != 2 || prof[0].FromMS != 0 || prof[0].ToMS != 5000 {
		t.Fatalf("segment 0: %+v", prof[0])
	}
	if prof[1].Busy != 1 || prof[1].ToMS != 7000 {
		t.Fatalf("segment 1: %+v", prof[1])
	}
	red := rec.SlotProfile(workload.ReduceTask)
	if len(red) != 1 || red[0].FromMS != 7000 || red[0].ToMS != 10_000 {
		t.Fatalf("reduce profile %+v", red)
	}
}

func TestGanttRows(t *testing.T) {
	rec, cluster := runTraced(t)
	rows := rec.GanttRows(cluster, 40)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
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
