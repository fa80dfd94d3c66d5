package rmkit

import (
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// mkExecJob builds a job whose map and reduce tasks take the given
// execution times, one slot each.
func mkExecJob(id int, arrival, earliest, deadline int64, mapExec, redExec []int64) *workload.Job {
	j := &workload.Job{ID: id, Arrival: arrival, EarliestStart: earliest, Deadline: deadline}
	for _, e := range mapExec {
		j.MapTasks = append(j.MapTasks, &workload.Task{
			ID: "m", JobID: id, Type: workload.MapTask, Exec: e, Req: 1})
	}
	for _, e := range redExec {
		j.ReduceTasks = append(j.ReduceTasks, &workload.Task{
			ID: "r", JobID: id, Type: workload.ReduceTask, Exec: e, Req: 1})
	}
	return j
}

// newList builds the registered list baseline name for the cluster.
func newList(t *testing.T, name string, cluster sim.Cluster) *ListScheduler {
	t.Helper()
	rm, err := New(name, cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rm.(*ListScheduler)
}

// runList runs the jobs under the named list baseline and requires every
// job to complete.
func runList(t *testing.T, name string, cluster sim.Cluster, jobs []*workload.Job) *sim.Metrics {
	t.Helper()
	s, err := sim.New(cluster, newList(t, name, cluster), jobs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d of %d", m.JobsCompleted, len(jobs))
	}
	return m
}

func TestFIFOServesInArrivalOrder(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	first := mkExecJob(0, 0, 0, 1e9, []int64{5000}, nil)
	// The second job has a much tighter deadline, but FIFO ignores it.
	tight := mkExecJob(1, 100, 100, 5200, []int64{1000}, nil)
	m := runList(t, "fifo", cluster, []*workload.Job{first, tight})
	for _, r := range m.Records {
		if r.Job.ID == 1 {
			if !r.Late() {
				t.Fatal("FIFO should have made the tight job late (deadline-blind)")
			}
			if r.Completion != 6000 {
				t.Fatalf("tight job completed at %d, want 6000 (after the first job)", r.Completion)
			}
		}
	}
}

func TestFIFOWorkConserving(t *testing.T) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 1, ReduceSlots: 1}
	j := mkExecJob(0, 0, 0, 1e9, []int64{3000, 3000, 3000, 3000}, nil)
	m := runList(t, "fifo", cluster, []*workload.Job{j})
	if m.MakespanMS != 3000 {
		t.Fatalf("makespan %d, want 3000 (all maps in parallel)", m.MakespanMS)
	}
}

func TestFIFOReduceAfterMaps(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	j := mkExecJob(0, 0, 0, 1e9, []int64{1000, 8000}, []int64{2000})
	m := runList(t, "fifo", cluster, []*workload.Job{j})
	if m.MakespanMS != 10_000 {
		t.Fatalf("makespan %d, want 10000", m.MakespanMS)
	}
}

func TestFIFORespectsEarliestStart(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkExecJob(0, 0, 4000, 1e9, []int64{1000}, nil)
	m := runList(t, "fifo", cluster, []*workload.Job{j})
	if m.MakespanMS != 5000 {
		t.Fatalf("makespan %d, want 5000", m.MakespanMS)
	}
}

// The constructed scenario where deadline awareness provably matters: a
// loose job's queue blocks a tight later arrival under FIFO, while
// MinEDF-WC reorders and meets both deadlines. (Aggregate comparisons on
// random streams are deliberately not asserted: above saturation EDF's
// domino effect can make it lose to FCFS on the *count* of late jobs —
// a classic scheduling result, visible in this repository too.)
func TestDeadlineAwarenessBeatsFIFOWhereItMatters(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	mk := func() []*workload.Job {
		return []*workload.Job{
			mkExecJob(0, 0, 0, 100_000, []int64{5000, 5000}, nil), // loose
			mkExecJob(1, 100, 100, 7000, []int64{1000}, nil),      // tight, arrives second
		}
	}
	mFIFO := runList(t, "fifo", cluster, mk())
	mEDF := runList(t, "minedf", cluster, mk())
	if mFIFO.N() != 1 {
		t.Fatalf("FIFO late %d, want 1 (blind to the tight job)", mFIFO.N())
	}
	if mEDF.N() != 0 {
		t.Fatalf("MinEDF-WC late %d, want 0 (reorders for the tight job)", mEDF.N())
	}
}

func TestFIFOHandlesSyntheticStream(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 8
	cfg.NumMapHi = 15
	cfg.NumReduceHi = 8
	cfg.Lambda = 0.015
	cluster := sim.Cluster{NumResources: 8, MapSlots: 2, ReduceSlots: 2}
	jobs, err := cfg.Generate(40, stats.NewStream(91, 3))
	if err != nil {
		t.Fatal(err)
	}
	m := runList(t, "fifo", cluster, jobs)
	if m.Invocations == 0 {
		t.Fatal("overhead accounting broken")
	}
}
