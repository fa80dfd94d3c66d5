package workload

import (
	"fmt"
	"reflect"
	"testing"

	"mrcprm/internal/stats"
)

// newTask builds a lone task named as the generators name theirs.
func newTask(jobID int, typ TaskType, idx int, exec int64) *Task {
	return &Task{ID: taskID(jobID, typ, idx), JobID: jobID, Type: typ, Exec: exec, Req: 1}
}

// TestSpecRoundTrip: generator output shipped through SpecOf and rebuilt in
// submission order is identical to the original, task IDs included.
func TestSpecRoundTrip(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.NumMapHi = 8
	cfg.NumReduceHi = 4
	jobs, err := cfg.Generate(10, stats.NewStream(11, 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		rebuilt, err := SpecOf(j).Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt.Arrival != j.Arrival || rebuilt.EarliestStart != j.EarliestStart ||
			rebuilt.Deadline != j.Deadline {
			t.Fatalf("SLA changed: %+v vs %+v", rebuilt, j)
		}
		if rebuilt.NumTasks() != j.NumTasks() {
			t.Fatalf("task count changed: %d vs %d", rebuilt.NumTasks(), j.NumTasks())
		}
		for i, orig := range j.Tasks() {
			got := rebuilt.Tasks()[i]
			if got.ID != orig.ID || got.Exec != orig.Exec || got.Type != orig.Type ||
				got.Req != orig.Req || got.JobID != orig.JobID {
				t.Fatalf("task %d changed: %+v vs %+v", i, got, orig)
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := (JobSpec{DeadlineMS: 10}).Job(0); err == nil {
		t.Fatal("spec without map tasks accepted")
	}
	if _, err := (JobSpec{MapExecMS: []int64{0}, DeadlineMS: 10}).Job(0); err == nil {
		t.Fatal("zero exec time accepted")
	}
	// Earliest start before arrival clamps instead of failing.
	s := JobSpec{ArrivalMS: 100, EarliestStartMS: 50, DeadlineMS: 10_000, MapExecMS: []int64{100}}
	j, err := s.Job(1)
	if err != nil {
		t.Fatal(err)
	}
	if j.EarliestStart != 100 {
		t.Fatalf("earliest start %d, want clamped to 100", j.EarliestStart)
	}
	if !reflect.DeepEqual(SpecOf(j).MapExecMS, []int64{100}) {
		t.Fatal("round trip lost the map task")
	}
}

// TestSpecJobMaterialisation pins what JobSpec.Job builds — IDs (job id 0,
// multi-digit job ids and task indices), order, per-task fields, the memory
// prefix rule and the SpecOf round trip — against a formatter that shares
// no code with taskID, and bounds its allocations.
func TestSpecJobMaterialisation(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.NumMapHi = 8
	cfg.NumReduceHi = 4
	jobs, err := cfg.Generate(10, stats.NewStream(11, 12))
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{{
		// 12 maps and 11 reduces reach two-digit indices; the memory slices
		// cover a prefix of each phase.
		ArrivalMS: 5, EarliestStartMS: 7, DeadlineMS: 1 << 40,
		MapExecMS:    []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		ReduceExecMS: []int64{21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31},
		MapMem:       []int64{3, 1, 2},
		ReduceMem:    []int64{4},
	}}
	for _, j := range jobs {
		specs = append(specs, SpecOf(j))
	}
	for si, spec := range specs {
		for _, id := range []int{0, 7, 10, 123456} {
			j, err := spec.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(j.MapTasks) != len(spec.MapExecMS) || len(j.ReduceTasks) != len(spec.ReduceExecMS) {
				t.Fatalf("spec %d id %d: %d+%d tasks, want %d+%d", si, id,
					len(j.MapTasks), len(j.ReduceTasks), len(spec.MapExecMS), len(spec.ReduceExecMS))
			}
			check := func(got *Task, kind string, typ TaskType, k int, exec int64, mem []int64) {
				t.Helper()
				want := Task{ID: fmt.Sprintf("t%d_%s%d", id, kind, k+1), JobID: id, Type: typ, Exec: exec, Req: 1}
				if k < len(mem) {
					want.Mem = mem[k]
				}
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("spec %d id %d: task %+v, want %+v", si, id, *got, want)
				}
			}
			for k, got := range j.MapTasks {
				check(got, "m", MapTask, k, spec.MapExecMS[k], spec.MapMem)
			}
			for k, got := range j.ReduceTasks {
				check(got, "r", ReduceTask, k, spec.ReduceExecMS[k], spec.ReduceMem)
			}
			mapsFirst := append(append([]*Task(nil), j.MapTasks...), j.ReduceTasks...)
			if !reflect.DeepEqual(j.Tasks(), mapsFirst) {
				t.Fatalf("spec %d id %d: Tasks() is not the map tasks followed by the reduce tasks", si, id)
			}
			back := SpecOf(j)
			if len(spec.MapMem)+len(spec.ReduceMem) > 0 {
				// SpecOf writes full-length memory slices; compare them by
				// rebuilding, which reads a short slice as a zero-padded one.
				again, err := back.Job(id)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, j) {
					t.Fatalf("spec %d id %d: SpecOf round trip changed the job", si, id)
				}
			} else if !reflect.DeepEqual(back, spec) {
				t.Fatalf("spec %d id %d: SpecOf round trip %+v, want %+v", si, id, back, spec)
			}
		}
	}

	// One ID string per task, the task block, the two pointer slices and the
	// job: 104 for 100 tasks, where per-task allocation and fmt.Sprintf IDs
	// took 416.
	big := hundredTaskSpec()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := big.Job(4242); err != nil {
			t.Fatal(err)
		}
	})
	if tasks := len(big.MapExecMS) + len(big.ReduceExecMS); allocs > float64(tasks+4) {
		t.Fatalf("JobSpec.Job allocates %.0f times for %d tasks, want at most %d", allocs, tasks, tasks+4)
	}
}

func hundredTaskSpec() JobSpec {
	s := JobSpec{DeadlineMS: 1 << 40, MapExecMS: make([]int64, 70), ReduceExecMS: make([]int64, 30)}
	for i := range s.MapExecMS {
		s.MapExecMS[i] = int64(i + 1)
	}
	for i := range s.ReduceExecMS {
		s.ReduceExecMS[i] = int64(i + 1)
	}
	return s
}

var benchJob *Job

// BenchmarkSpecJob prices materialising one 100-task submission, which a
// routed POST does twice (the router's feasibility probe, then the engine).
func BenchmarkSpecJob(b *testing.B) {
	spec := hundredTaskSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := spec.Job(i)
		if err != nil {
			b.Fatal(err)
		}
		benchJob = j
	}
}
