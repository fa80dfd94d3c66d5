package slo

import (
	"encoding/json"
	"fmt"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/faults"
	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// classes lists every attribution class.
var classes = []string{ClassInfeasible, ClassFaultDelay, ClassQueuedBacklog}

func job(id int, arrival, deadline int64) *workload.Job {
	return &workload.Job{ID: id, Arrival: arrival, EarliestStart: arrival, Deadline: deadline}
}

// attribution is one slo_attribution event as a sink recorded it.
type attribution struct {
	Job     int    `json:"job"`
	Class   string `json:"class"`
	Outcome string `json:"outcome"`
}

// attributions returns the slo_attribution events sink recorded, in order.
func attributions(t *testing.T, sink *obs.MemorySink) []attribution {
	t.Helper()
	var out []attribution
	for _, ev := range sink.Events() {
		if ev.Kind != "slo_attribution" {
			continue
		}
		var a attribution
		if err := json.Unmarshal(ev.AppendJSON(nil), &a); err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func TestTraceLifecycleAndCoalescing(t *testing.T) {
	m := NewMonitor(Config{})
	j := job(7, 0, 1000)
	m.JobSubmitted(0, 7, false)
	tasks := []*workload.Task{{ID: "m0"}, {ID: "m1"}, {ID: "m2"}}
	for _, tk := range tasks {
		m.TaskScheduled(0, tk, j, 0, 10, sim.PlaceNew)
	}
	m.TaskScheduled(5, tasks[1], j, 1, 20, sim.PlaceReplan)
	m.TaskFailed(30, tasks[2], j, 0)
	m.TaskScheduled(31, tasks[2], j, 1, 40, sim.PlaceRetry)
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
	if by := m.MissByClass(); by != nil {
		t.Fatalf("on-time job attributed: %v", by)
	}
}

func TestTraceRingCap(t *testing.T) {
	m := NewMonitor(Config{})
	j := job(1, 0, 10)
	const n = TraceCap + 6
	for i := 0; i < n; i++ {
		m.TaskFailed(int64(i), &workload.Task{ID: fmt.Sprintf("t%d", i)}, j, 0)
	}
	events, dropped, _ := m.Trace(1)
	if len(events) != TraceCap {
		t.Fatalf("ring len = %d, want %d", len(events), TraceCap)
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if events[0].Detail != "t6" || events[TraceCap-1].Detail != fmt.Sprintf("t%d", n-1) {
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
		{"straggle_is_fault", func(m *Monitor, j *workload.Job) {
			m.TaskSlowdown(20, tk, j, 0, 30, 10)
		}, ClassFaultDelay},
		{"infeasible_beats_all", func(m *Monitor, j *workload.Job) {
			m.TaskFailed(20, tk, j, 0)
		}, ClassInfeasible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &obs.MemorySink{}
			m := NewMonitor(Config{Telemetry: obs.New(sink)})
			j := job(1, 0, 50)
			m.JobSubmitted(0, 1, tc.name == "infeasible_beats_all")
			tc.setup(m, j)
			m.JobCompleted(100, j, 50)
			attrs := attributions(t, sink)
			if len(attrs) != 1 {
				t.Fatalf("attributions = %d, want 1", len(attrs))
			}
			if attrs[0].Class != tc.want {
				t.Fatalf("class = %s, want %s", attrs[0].Class, tc.want)
			}
		})
	}
}

func TestBurnMonitorWindowAndGate(t *testing.T) {
	m := NewMonitor(Config{MissBudget: 0.2, WindowMS: 1000})
	// MinSample-1 misses out of as many finishes: rate 1.0 but below
	// MinSample.
	const misses = MinSample - 1
	for i := 0; i < misses; i++ {
		m.JobAbandoned(int64(i), job(i, 0, 1))
	}
	if b := m.Burn(misses); b.Burning {
		t.Fatalf("burning below MinSample: %+v", b)
	}
	// One more finish (on time) crosses the gate: 19/20 misses > 0.2 budget.
	m.JobCompleted(50, job(100, 0, 1000), -950)
	b := m.Burn(50)
	if !b.Burning || b.Finished != MinSample || b.Missed != misses {
		t.Fatalf("expected burning %d/%d: %+v", misses, MinSample, b)
	}
	if want := float64(misses) / MinSample / 0.2; b.BurnRate < want-0.01 || b.BurnRate > want+0.01 {
		t.Fatalf("burn rate = %v, want %v", b.BurnRate, want)
	}
	// The window slides: after the misses age out, only recent on-time
	// finishes remain, enough to pass the gate, and the alarm clears.
	const onTime = MinSample + 1
	for i := 0; i < onTime; i++ {
		m.JobCompleted(2000+int64(i), job(200+i, 0, 1e9), -1)
	}
	b = m.Burn(2000 + onTime)
	if b.Burning {
		t.Fatalf("still burning after window slid: %+v", b)
	}
	if b.Missed != 0 || b.Finished != onTime {
		t.Fatalf("window contents = %+v, want %d finishes 0 missed", b, onTime)
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
	for _, c := range classes {
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
			sink := &obs.MemorySink{}
			tel := obs.New(sink)
			mon := NewMonitor(Config{Telemetry: tel})
			s.AddObserver(mon)
			metrics, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			var late, abandoned int
			seen := map[int]int{}
			for _, a := range attributions(t, sink) {
				if !classSet[a.Class] {
					t.Fatalf("unknown class %q on job %d", a.Class, a.Job)
				}
				seen[a.Job]++
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
			by := mon.MissByClass()
			var sum int64
			for _, v := range by {
				sum += v
			}
			if sum != int64(metrics.LateJobs+metrics.JobsAbandoned) {
				t.Fatalf("MissByClass %v sums to %d, metrics have %d late and %d abandoned",
					by, sum, metrics.LateJobs, metrics.JobsAbandoned)
			}
			// The emitted counter family reconciles too.
			counters := tel.Snapshot()
			var counterSum int64
			for _, c := range classes {
				counterSum += counters[CounterMiss+c]
			}
			if counterSum != counters["slo_miss_total"] {
				t.Fatalf("counter family sum %d != slo_miss_total %d",
					counterSum, counters["slo_miss_total"])
			}
			if counterSum != sum {
				t.Fatalf("counters %d != MissByClass total %d", counterSum, sum)
			}
			// At positive fault rates with misses present, fault damage
			// must be visible in the attribution breakdown.
			if rate >= 0.25 && late+abandoned > 0 && by[ClassFaultDelay] == 0 {
				t.Fatalf("no fault_delay attributions at failrate %g: %v", rate, by)
			}
			t.Logf("failrate=%g: %d late, %d abandoned, by class %v",
				rate, metrics.LateJobs, metrics.JobsAbandoned, by)
		})
	}
}
