package main

import (
	"encoding/json"
	"strings"
	"testing"

	"mrcprm"
)

// The demo reads as the jobs its JSON spells out: IDs by position, the
// generators' task names, milliseconds as written.
func TestReadProblemDemo(t *testing.T) {
	cluster, jobs, err := readProblem([]byte(demoProblem))
	if err != nil {
		t.Fatal(err)
	}
	if !cluster.Equal(mrcprm.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}) {
		t.Fatalf("cluster %+v", cluster)
	}
	if len(jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(jobs))
	}
	j := jobs[1]
	if j.ID != 1 || j.EarliestStart != 5_000 || j.Deadline != 45_000 ||
		len(j.MapTasks) != 1 || j.MapTasks[0].ID != "t1_m1" || j.MapTasks[0].Exec != 20_000 ||
		len(j.ReduceTasks) != 1 || j.ReduceTasks[0].ID != "t1_r1" || j.ReduceTasks[0].Exec != 6_000 {
		t.Fatalf("job 1 read as %+v", j)
	}
}

// A problem is the cluster the journal's meta record carries plus the
// specs its submit records carry, so a journaled cluster and job read back
// as the same cluster and job.
func TestReadProblemTakesJournalEncodings(t *testing.T) {
	cluster := mrcprm.Cluster{NumResources: 3, MapSlots: 2, ReduceSlots: 1,
		Speed: []float64{1, 1, 0.5}, MemCapacity: 8}
	job := &mrcprm.Job{ID: 0, Arrival: 1_000, EarliestStart: 2_000, Deadline: 90_000}
	job.AddTask("t0_m1", mrcprm.MapTask, 7_000).Mem = 3
	job.AddTask("t0_r1", mrcprm.ReduceTask, 4_000).Mem = 5
	clusterJSON, err := json.Marshal(cluster)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(mrcprm.JobSpecOf(job))
	if err != nil {
		t.Fatal(err)
	}
	doc := `{"cluster": ` + string(clusterJSON) + `, "jobs": [` + string(specJSON) + `]}`
	gotCluster, jobs, err := readProblem([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !gotCluster.Equal(cluster) || len(jobs) != 1 {
		t.Fatalf("read %+v with %d jobs from %s", gotCluster, len(jobs), doc)
	}
	got := jobs[0]
	if got.Arrival != job.Arrival || got.EarliestStart != job.EarliestStart || got.Deadline != job.Deadline {
		t.Fatalf("SLA read as %+v, want %+v", got, job)
	}
	for i, want := range job.Tasks() {
		g := got.Tasks()[i]
		if g.ID != want.ID || g.Type != want.Type || g.Exec != want.Exec || g.Mem != want.Mem {
			t.Fatalf("task %d read as %+v, want %+v", i, g, want)
		}
	}
	// The two-speed, memory-constrained cluster solves in the direct
	// formulation and the schedule holds on the machines' true durations.
	sched, err := mrcprm.SolveBatch(gotCluster, jobs, mrcprm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(gotCluster); err != nil {
		t.Fatal(err)
	}
}

// FuzzProblem feeds arbitrary bytes to the problem reader, which must never
// panic; an accepted problem has one job per spec, each under its position
// as ID, and the same bytes followed by a second value are refused.
func FuzzProblem(f *testing.F) {
	f.Add([]byte(demoProblem))
	f.Add([]byte(`{"cluster": {"NumResources": 2, "MapSlots": 1, "ReduceSlots": 1, "Speed": [1, 0.5], "MemCapacity": 4},
		"jobs": [{"arrivalMs": 3, "deadlineMs": 9000, "mapExecMs": [10, 20], "mapMem": [4]}]}`))
	f.Add([]byte(`{"cluster": {"resources": 2}, "jobs": []}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, jobs, err := readProblem(data)
		if err != nil {
			return
		}
		var specs struct{ Jobs []json.RawMessage }
		if err := json.Unmarshal(data, &specs); err != nil || len(specs.Jobs) != len(jobs) {
			t.Fatalf("%d jobs read from %q (%v)", len(jobs), data, err)
		}
		for i, j := range jobs {
			if j.ID != i {
				t.Fatalf("job %d read under ID %d", i, j.ID)
			}
		}
		if _, _, err := readProblem(append(append([]byte(nil), data...), "{}"...)); err == nil {
			t.Fatalf("%q accepted with a second value after it", data)
		}
	})
}

// A file in another format is refused, naming what it does not know: the
// seconds-based format this command used to read, a misspelt field, and a
// document followed by another.
func TestReadProblemRefusesOtherFormats(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"seconds format",
			`{"cluster": {"resources": 2, "mapSlots": 1, "reduceSlots": 1},
			  "jobs": [{"id": 0, "earliestStart": 0, "deadline": 60, "mapTasks": [10]}]}`,
			`unknown field "resources"`},
		{"job field", `{"cluster": {"NumResources": 1, "MapSlots": 1}, "jobs": [{"mapTasks": [10]}]}`,
			`unknown field "mapTasks"`},
		{"trailing value", demoProblem + `{}`, "unexpected data"},
		{"no map tasks", `{"cluster": {"NumResources": 1, "MapSlots": 1}, "jobs": [{"deadlineMs": 5}]}`,
			"job 0: workload: job spec has no map tasks"},
	} {
		if _, _, err := readProblem([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
