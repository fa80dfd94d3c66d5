package sim_test

import (
	"fmt"
	"testing"

	"mrcprm/internal/faults"
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// eventLog implements every Observer event and appends "name kind args" to
// a log it shares with other observers, so the log shows the order in which
// the simulator notified them.
type eventLog struct {
	name string
	log  *[]string
	kind map[string]int
}

func (o *eventLog) note(kind string, args ...any) {
	*o.log = append(*o.log, fmt.Sprint(o.name, " ", kind, " ", args))
	o.kind[kind]++
}

func (o *eventLog) TaskStarted(now int64, t *workload.Task, j *workload.Job, res int) {
	o.note("start", now, t.ID, j.ID, res)
}

func (o *eventLog) TaskFinished(now int64, t *workload.Task, j *workload.Job, res int) {
	o.note("finish", now, t.ID, j.ID, res)
}

func (o *eventLog) TaskFailed(now int64, t *workload.Task, j *workload.Job, res int) {
	o.note("fail", now, t.ID, j.ID, res)
}

func (o *eventLog) TaskKilled(now int64, t *workload.Task, j *workload.Job, res int) {
	o.note("kill", now, t.ID, j.ID, res)
}

func (o *eventLog) ResourceDown(now int64, res int) { o.note("down", now, res) }

func (o *eventLog) ResourceUp(now int64, res int) { o.note("up", now, res) }

func (o *eventLog) TaskScheduled(now int64, t *workload.Task, j *workload.Job, res int, start int64, kind sim.PlaceKind) {
	o.note("scheduled", now, t.ID, j.ID, res, start, kind)
}

func (o *eventLog) TaskSlowdown(now int64, t *workload.Task, j *workload.Job, res int, effExec, nominal int64) {
	o.note("slowdown", now, t.ID, j.ID, res, effExec, nominal)
}

func (o *eventLog) JobCompleted(now int64, j *workload.Job, latenessMS int64) {
	o.note("completed", now, j.ID, latenessMS)
}

func (o *eventLog) JobAbandoned(now int64, j *workload.Job) { o.note("abandoned", now, j.ID) }

// TestObserversSeeEveryEventInAttachOrder: two observers attached with
// AddObserver (a nil one between them is ignored) each receive every event
// kind, with the same arguments, the first before the second every time.
func TestObserversSeeEveryEventInAttachOrder(t *testing.T) {
	gen := workload.DefaultSynthetic()
	gen.NumResources = 4
	gen.NumMapHi = 8
	gen.NumReduceHi = 4
	gen.Lambda = 0.05
	cluster := sim.Cluster{NumResources: gen.NumResources,
		MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource}
	jobs, err := gen.Generate(60, stats.NewStream(21, 0xc0de))
	if err != nil {
		t.Fatal(err)
	}
	horizon := jobs[len(jobs)-1].Arrival
	plan, err := faults.New(faults.Config{
		TaskFailureProb: 0.15,
		StragglerProb:   0.10,
		MTBFMs:          float64(horizon) / 4,
		MTTRMs:          40_000,
		OutageHorizonMs: horizon,
		NumResources:    cluster.NumResources,
		Seed1:           5, Seed2: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One retry per task, so some job is abandoned.
	rm, err := rmkit.New("fifo", cluster, rmkit.Options{Retry: &rmkit.RetryPolicy{MaxTaskRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cluster, rm, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaultInjector(plan); err != nil {
		t.Fatal(err)
	}
	var log []string
	a := &eventLog{name: "A", log: &log, kind: map[string]int{}}
	b := &eventLog{name: "B", log: &log, kind: map[string]int{}}
	s.AddObserver(a)
	s.AddObserver(nil)
	s.AddObserver(b)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	for _, kind := range []string{"start", "finish", "fail", "kill", "down", "up",
		"scheduled", "slowdown", "completed", "abandoned"} {
		if a.kind[kind] == 0 || a.kind[kind] != b.kind[kind] {
			t.Errorf("%s: A saw %d, B saw %d; want the same nonzero count", kind, a.kind[kind], b.kind[kind])
		}
	}
	if len(log)%2 != 0 {
		t.Fatalf("%d notifications, want pairs", len(log))
	}
	for i := 0; i < len(log); i += 2 {
		if log[i][:2] != "A " || log[i+1] != "B "+log[i][2:] {
			t.Fatalf("notification %d: %q then %q, want A then B with the same event", i, log[i], log[i+1])
		}
	}
}
