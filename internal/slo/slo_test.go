package slo

import (
	"fmt"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/faults"
	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func job(id int, arrival, deadline int64) *workload.Job {
	return &workload.Job{ID: id, Arrival: arrival, EarliestStart: arrival, Deadline: deadline}
}

func TestNilMonitorInert(t *testing.T) {
	var m *Monitor
	j := job(1, 0, 100)
	tk := &workload.Task{ID: "t"}
	m.JobSubmitted(0, 1, false)
	m.JobShed(0, 1, "x")
	m.OnReschedule(0, "arrival", true)
	m.TaskScheduled(0, tk, j, 0, 10, false)
	m.TaskFailed(5, tk, j, 0)
	m.TaskKilled(5, tk, j, 0)
	m.TaskSlowdown(5, tk, j, 0, 20, 10)
	m.JobCompleted(50, j, -50)
	m.JobAbandoned(60, j)
	if b := m.Burn(100); b.Burning {
		t.Fatal("nil monitor burning")
	}
	if _, _, ok := m.Trace(1); ok {
		t.Fatal("nil monitor returned a trace")
	}
	tot := m.AttributionTotals()
	if len(tot.LateByClass) != 0 || len(tot.AbandonedByClass) != 0 {
		t.Fatal("nil monitor has totals")
	}
	if a := m.Attributions(); a != nil {
		t.Fatal("nil monitor has attributions")
	}
}

func TestTraceLifecycleAndCoalescing(t *testing.T) {
	m := NewMonitor(Config{})
	j := job(7, 0, 1000)
	m.JobSubmitted(0, 7, false)
	tasks := []*workload.Task{{ID: "m0"}, {ID: "m1"}, {ID: "m2"}}
	for _, tk := range tasks {
		m.TaskScheduled(0, tk, j, 0, 10, false)
	}
	m.TaskScheduled(5, tasks[1], j, 1, 20, true)
	m.TaskFailed(30, tasks[2], j, 0)
	m.TaskScheduled(31, tasks[2], j, 1, 40, false)
	m.JobCompleted(900, j, -100)

	events, dropped, ok := m.Trace(7)
	if !ok {
		t.Fatal("trace missing")
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	kinds := make([]string, len(events))
	for i, e := range events {
		kinds[i] = e.Kind
	}
	want := []string{KindSubmitted, KindAdmitted, KindPlaced, KindReplanned, KindTaskFail, KindTaskRetry, KindCompleted}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	// The three same-instant placements coalesced into one entry.
	if events[2].Count != 3 {
		t.Fatalf("placed count = %d, want 3", events[2].Count)
	}
	if events[6].Detail != "on_time" {
		t.Fatalf("completed detail = %q, want on_time", events[6].Detail)
	}
	// On-time completion must not be attributed.
	if n := len(m.Attributions()); n != 0 {
		t.Fatalf("on-time job attributed %d times", n)
	}
}

func TestTraceRingCap(t *testing.T) {
	m := NewMonitor(Config{TraceCap: 4})
	j := job(1, 0, 10)
	for i := 0; i < 10; i++ {
		m.TaskFailed(int64(i), &workload.Task{ID: fmt.Sprintf("t%d", i)}, j, 0)
	}
	events, dropped, _ := m.Trace(1)
	if len(events) != 4 {
		t.Fatalf("ring len = %d, want 4", len(events))
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if events[0].Detail != "t6" || events[3].Detail != "t9" {
		t.Fatalf("ring kept wrong tail: %v", events)
	}
}

func TestClassificationPriority(t *testing.T) {
	tk := &workload.Task{ID: "x"}
	cases := []struct {
		name  string
		setup func(m *Monitor, j *workload.Job)
		want  string
	}{
		{"backlog_default", func(m *Monitor, j *workload.Job) {}, ClassQueuedBacklog},
		{"solver_degraded", func(m *Monitor, j *workload.Job) {
			m.OnReschedule(10, "arrival", true)
		}, ClassSolverDegraded},
		{"fault_beats_solver", func(m *Monitor, j *workload.Job) {
			m.OnReschedule(10, "arrival", true)
			m.TaskFailed(20, tk, j, 0)
		}, ClassFaultDelay},
		{"straggle_is_fault", func(m *Monitor, j *workload.Job) {
			m.TaskSlowdown(20, tk, j, 0, 30, 10)
		}, ClassFaultDelay},
		{"infeasible_beats_all", func(m *Monitor, j *workload.Job) {
			m.TaskFailed(20, tk, j, 0)
			m.OnReschedule(10, "arrival", true)
		}, ClassInfeasible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor(Config{})
			j := job(1, 0, 50)
			m.JobSubmitted(0, 1, tc.name == "infeasible_beats_all")
			tc.setup(m, j)
			m.JobCompleted(100, j, 50)
			attrs := m.Attributions()
			if len(attrs) != 1 {
				t.Fatalf("attributions = %d, want 1", len(attrs))
			}
			if attrs[0].Class != tc.want {
				t.Fatalf("class = %s, want %s", attrs[0].Class, tc.want)
			}
		})
	}
}

// TestFallbackBeforeFirstSightIsInvisible: a fallback round that ended
// before the job was first seen must not taint its classification.
func TestFallbackBeforeFirstSightIsInvisible(t *testing.T) {
	m := NewMonitor(Config{})
	m.OnReschedule(5, "arrival", true) // degradation before job 2 exists
	j := job(2, 10, 50)
	m.JobSubmitted(10, 2, false)
	m.JobCompleted(100, j, 50)
	attrs := m.Attributions()
	if len(attrs) != 1 || attrs[0].Class != ClassQueuedBacklog {
		t.Fatalf("attrs = %+v, want one queued_backlog", attrs)
	}
}

func TestBurnMonitorWindowAndGate(t *testing.T) {
	m := NewMonitor(Config{MissBudget: 0.2, WindowMS: 1000, MinSample: 5})
	// Four misses out of four finishes: rate 1.0 but below MinSample.
	for i := 0; i < 4; i++ {
		m.JobAbandoned(int64(i*10), job(i, 0, 1))
	}
	if b := m.Burn(40); b.Burning {
		t.Fatalf("burning below MinSample: %+v", b)
	}
	// Fifth finish (on time) crosses the gate: 4/5 misses > 0.2 budget.
	m.JobCompleted(50, job(10, 0, 1000), -950)
	b := m.Burn(50)
	if !b.Burning || b.Finished != 5 || b.Missed != 4 {
		t.Fatalf("expected burning 4/5: %+v", b)
	}
	if b.BurnRate < 3.9 || b.BurnRate > 4.1 {
		t.Fatalf("burn rate = %v, want 4.0", b.BurnRate)
	}
	// The window slides: after the misses age out, only recent on-time
	// finishes remain and the alarm clears.
	for i := 0; i < 6; i++ {
		m.JobCompleted(2000+int64(i), job(20+i, 0, 1e9), -1)
	}
	b = m.Burn(2010)
	if b.Burning {
		t.Fatalf("still burning after window slid: %+v", b)
	}
	if b.Missed != 0 || b.Finished != 6 {
		t.Fatalf("window contents = %+v, want 6 finishes 0 missed", b)
	}
	// Burn never moves backwards in time.
	if b2 := m.Burn(100); b2.Finished != b.Finished {
		t.Fatalf("Burn with stale now rewound the window: %+v", b2)
	}
}

func TestShedTrace(t *testing.T) {
	m := NewMonitor(Config{})
	m.JobShed(5, 3, "overloaded")
	events, _, ok := m.Trace(3)
	if !ok || len(events) != 2 || events[1].Kind != KindShed || events[1].Detail != "overloaded" {
		t.Fatalf("shed trace = %v ok=%v", events, ok)
	}
}

// TestFaultSweepReconciliation is the acceptance check: across a sweep of
// failure rates, every late completion and every abandonment carries
// exactly one attribution class, and the per-class totals reconcile with
// the simulator's own LateJobs / JobsAbandoned counters.
func TestFaultSweepReconciliation(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cluster := sim.Cluster{
		NumResources: cfg.NumResources,
		MapSlots:     cfg.MapSlotsPerResource,
		ReduceSlots:  cfg.ReduceSlotsPerResource,
	}
	classSet := map[string]bool{}
	for _, c := range Classes() {
		classSet[c] = true
	}
	for _, rate := range []float64{0, 0.05, 0.25} {
		rate := rate
		t.Run(fmt.Sprintf("failrate=%g", rate), func(t *testing.T) {
			jobs, err := cfg.Generate(30, stats.NewStream(7, 0xfeed))
			if err != nil {
				t.Fatal(err)
			}
			mcfg := core.DeterministicConfig()
			mcfg.NodeLimit = 3000
			rm := core.New(cluster, mcfg)
			s, err := sim.New(cluster, rm, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if rate > 0 {
				plan, err := faults.New(faults.Config{
					TaskFailureProb: rate,
					StragglerProb:   rate / 2,
					Seed1:           7,
					Seed2:           0xfa1157,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SetFaultInjector(plan); err != nil {
					t.Fatal(err)
				}
			}
			tel := obs.New(&obs.MemorySink{})
			mon := NewMonitor(Config{Telemetry: tel})
			rm.SetRescheduleObserver(mon.OnReschedule)
			s.AddObserver(mon)
			metrics, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			attrs := mon.Attributions()
			var late, abandoned int
			seen := map[int]int{}
			for _, a := range attrs {
				if !classSet[a.Class] {
					t.Fatalf("unknown class %q on job %d", a.Class, a.JobID)
				}
				seen[a.JobID]++
				switch a.Outcome {
				case "late":
					late++
				case "abandoned":
					abandoned++
				default:
					t.Fatalf("unknown outcome %q", a.Outcome)
				}
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("job %d attributed %d times", id, n)
				}
			}
			if late != metrics.LateJobs {
				t.Fatalf("late attributions = %d, sim LateJobs = %d", late, metrics.LateJobs)
			}
			if abandoned != metrics.JobsAbandoned {
				t.Fatalf("abandoned attributions = %d, sim JobsAbandoned = %d", abandoned, metrics.JobsAbandoned)
			}
			tot := mon.AttributionTotals()
			var sumLate, sumAband int64
			for _, v := range tot.LateByClass {
				sumLate += v
			}
			for _, v := range tot.AbandonedByClass {
				sumAband += v
			}
			if sumLate != int64(metrics.LateJobs) || sumAband != int64(metrics.JobsAbandoned) {
				t.Fatalf("totals (%d late, %d abandoned) do not reconcile with metrics (%d, %d)",
					sumLate, sumAband, metrics.LateJobs, metrics.JobsAbandoned)
			}
			// The emitted counter family reconciles too.
			var counterSum int64
			for _, c := range Classes() {
				counterSum += tel.Counter(CounterMiss + c)
			}
			if counterSum != tel.Counter("slo_miss_total") {
				t.Fatalf("counter family sum %d != slo_miss_total %d",
					counterSum, tel.Counter("slo_miss_total"))
			}
			if counterSum != sumLate+sumAband {
				t.Fatalf("counters %d != attribution totals %d", counterSum, sumLate+sumAband)
			}
			// At positive fault rates with misses present, fault damage
			// must be visible in the attribution breakdown.
			if rate >= 0.25 && late+abandoned > 0 {
				if tot.LateByClass[ClassFaultDelay]+tot.AbandonedByClass[ClassFaultDelay] == 0 {
					t.Fatalf("no fault_delay attributions at failrate %g: %+v", rate, tot)
				}
			}
			t.Logf("failrate=%g: %d late, %d abandoned, totals=%+v",
				rate, metrics.LateJobs, metrics.JobsAbandoned, tot)
		})
	}
}
