package experiment

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	"mrcprm/internal/stats"
)

// tinyOptions keeps harness tests fast: these tests validate wiring and
// qualitative shape, not statistical precision.
func tinyOptions() Options {
	o := FastOptions()
	o.Jobs = 25
	o.FacebookJobs = 25
	o.Policy = stats.ReplicationPolicy{MinReps: 1, MaxReps: 1, Level: 0.95, RelTol: 1}
	return o
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"ablation-matchmaking", "ablation-deferral", "ablation-ordering", "faults", "hetero"}
	var got []string
	for _, s := range Registry {
		got = append(got, s.ID)
		if _, ok := ByID(s.ID); !ok {
			t.Errorf("registered experiment %q does not resolve", s.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry is %q, want exactly %q", got, want)
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("unknown id resolved")
	}
}

func TestFig7DeadlineSweepShape(t *testing.T) {
	spec, _ := ByID("fig7")
	r, err := spec.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("%d points, want 3", len(r.Points))
	}
	// Looser deadlines can only help: P(dUL=10) <= P(dUL=2) (weak check on
	// one small replication).
	if r.Points[2].P.Mean > r.Points[0].P.Mean {
		t.Errorf("P rose with looser deadlines: %v vs %v", r.Points[2].P.Mean, r.Points[0].P.Mean)
	}
	table := r.Table()
	if !strings.Contains(table, "dUL=2") || !strings.Contains(table, "MRCP-RM") {
		t.Errorf("table rendering incomplete:\n%s", table)
	}
}

func TestFig9ResourceSweepShape(t *testing.T) {
	spec, _ := ByID("fig9")
	r, err := spec.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// More resources => lower (or equal) turnaround.
	if r.Points[2].T.Mean > r.Points[0].T.Mean*1.05 {
		t.Errorf("T did not fall with more resources: m=25 %.1fs vs m=100 %.1fs",
			r.Points[0].T.Mean, r.Points[2].T.Mean)
	}
}

func TestFacebookComparisonRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("facebook comparison is slow")
	}
	opts := tinyOptions()
	r, err := runFacebookComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2*len(FacebookRates) {
		t.Fatalf("%d points, want %d", len(r.Points), 2*len(FacebookRates))
	}
	// Aggregate check across rates: MRCP-RM should not lose to MinEDF-WC
	// on late jobs overall (the paper's headline result).
	var mrcp, minedf float64
	for _, p := range r.Points {
		if p.Manager == "MRCP-RM" {
			mrcp += p.P.Mean
		} else {
			minedf += p.P.Mean
		}
	}
	if mrcp > minedf {
		t.Errorf("MRCP-RM aggregate P %.3f worse than MinEDF-WC %.3f", mrcp, minedf)
	}
}

// solveCounts is what the ablation test reads off a "solve" event.
type solveCounts struct {
	Nodes      int64 `json:"nodes"`
	ModelTasks int64 `json:"model_tasks"`
}

// solveTally is a telemetry sink that sums the solver's "solve" events per
// simulation run; the simulator's "run_end" closes one run.
type solveTally struct {
	runs []solveCounts
	cur  solveCounts
}

func (s *solveTally) Emit(e *obs.Event) {
	switch e.Kind {
	case "solve":
		var ev solveCounts
		if err := json.Unmarshal(e.AppendJSON(nil), &ev); err != nil {
			panic(err)
		}
		s.cur.Nodes += ev.Nodes
		s.cur.ModelTasks += ev.ModelTasks
	case "run_end":
		s.runs = append(s.runs, s.cur)
		s.cur = solveCounts{}
	}
}

// ROADMAP 8(e) for the one parking rule the manager keeps: on the
// ablation's advance-reservation-heavy stream, scheduling every job on
// arrival (Section V.E off) makes the solver visit at least ten times the
// nodes over ten times the modelled tasks, for the same late-job count. The
// budget is clock-free, so the counts are a function of the seed alone.
func TestAblationDeferralRuns(t *testing.T) {
	spec, _ := ByID("ablation-deferral")
	opts := tinyOptions()
	opts.Jobs = 40
	opts.ManagerConfig = core.DeterministicConfig()
	tally := &solveTally{}
	opts.Telemetry = obs.New(tally)
	r, err := spec.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 || len(tally.runs) != 2 {
		t.Fatalf("%d points over %d runs, want 2 over 2", len(r.Points), len(tally.runs))
	}
	on, off := r.Points[0], r.Points[1]
	if on.Factor != "deferral=true" || off.Factor != "deferral=false" {
		t.Fatalf("unexpected factors %q/%q", on.Factor, off.Factor)
	}
	if on.N.Mean != off.N.Mean {
		t.Errorf("late jobs differ: %v with deferral, %v without", on.N.Mean, off.N.Mean)
	}
	with, without := tally.runs[0], tally.runs[1]
	t.Logf("deferral on %+v, off %+v", with, without)
	if without.Nodes < 10*with.Nodes || without.ModelTasks < 10*with.ModelTasks {
		t.Errorf("deferral off spent %+v, want >= 10x the %+v with deferral", without, with)
	}
}

func TestAblationMatchmakingRuns(t *testing.T) {
	spec, _ := ByID("ablation-matchmaking")
	r, err := spec.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("%d points", len(r.Points))
	}
	if r.Points[0].Factor != "mode=combined" || r.Points[1].Factor != "mode=direct" {
		t.Fatalf("unexpected factors %q/%q", r.Points[0].Factor, r.Points[1].Factor)
	}
}

func TestAblationOrderingRuns(t *testing.T) {
	spec, _ := ByID("ablation-ordering")
	r, err := spec.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("%d points", len(r.Points))
	}
}

// TestParallelReplicationsMatchSequential checks that the replication
// fan-out is invisible in the results: every simulation-derived metric is a
// pure function of the replication seed, so workers=3 must reproduce
// workers=1 exactly (O is wall-clock-derived and excluded).
func TestParallelReplicationsMatchSequential(t *testing.T) {
	opts := tinyOptions()
	opts.Jobs = 20
	opts.Policy = stats.ReplicationPolicy{MinReps: 3, MaxReps: 3, Level: 0.95, RelTol: 1}
	spec, _ := ByID("fig7")

	opts.ReplicationWorkers = 1
	seq, err := spec.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ReplicationWorkers = 3
	par, err := spec.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Points) != len(par.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(seq.Points), len(par.Points))
	}
	for i := range seq.Points {
		s, p := seq.Points[i], par.Points[i]
		if s.Reps != p.Reps {
			t.Errorf("point %d: reps %d vs %d", i, s.Reps, p.Reps)
		}
		if s.T != p.T || s.P != p.P || s.N != p.N || s.Failed != p.Failed || s.Abandoned != p.Abandoned {
			t.Errorf("point %d: parallel metrics diverge from sequential:\n  seq=%+v\n  par=%+v", i, s, p)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := DefaultOptions()
	if d.Jobs <= 0 || d.FacebookJobs <= 0 || d.Policy.MaxReps < d.Policy.MinReps {
		t.Fatalf("bad defaults %+v", d)
	}
	f := FastOptions()
	if f.Jobs >= d.Jobs {
		t.Fatal("fast options should be smaller")
	}
}

func TestResultWriteCSV(t *testing.T) {
	spec, _ := ByID("fig7")
	r, err := spec.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(r.Points) {
		t.Fatalf("%d CSV lines for %d points", len(lines), len(r.Points))
	}
	if !strings.HasPrefix(lines[0], "experiment,factor,factor_value,manager") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "fig7,dUL=2") {
		t.Fatalf("row %q", lines[1])
	}
}
