// Package experiment regenerates every figure of the paper's evaluation
// (Section VI) plus the ablations called out in DESIGN.md. Each experiment
// is a registered Spec; cmd/experiments and the repository benchmarks are
// thin wrappers over this package.
//
// Absolute numbers (especially the scheduling overhead O, which is real
// wall-clock time of this repository's CP solver) differ from the paper's
// CPLEX-on-a-2013-PC measurements; the quantities to compare are the
// trends across factor values and the relative standing of MRCP-RM versus
// MinEDF-WC. EXPERIMENTS.md records paper-versus-measured for each figure.
package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	_ "mrcprm/internal/policies" // register every built-in policy
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// Options sizes an experiment run.
type Options struct {
	// Seed is the master seed; every replication derives from it.
	Seed uint64
	// Jobs is the number of jobs per replication for the Table 3 synthetic
	// experiments.
	Jobs int
	// FacebookJobs scales the Table 4 workload (1000 reproduces the paper).
	FacebookJobs int
	// Policy is the replication stopping rule.
	Policy stats.ReplicationPolicy
	// ManagerConfig configures MRCP-RM.
	ManagerConfig core.Config
	// ComparePolicies lists the registry names of the policies the
	// comparison experiments (fig2/fig3, faults) run side by side; empty
	// reproduces the paper's MRCP-RM vs MinEDF-WC pairing.
	ComparePolicies []string
	// Telemetry, when non-nil, streams solver/manager/sim events from every
	// replication into one JSONL sink. Events from different replications
	// interleave; the per-replication "run_end" events delimit them.
	Telemetry *obs.Telemetry
	// TelemetrySampleMS is the sim time-series cadence (<=0 = 5 s default).
	TelemetrySampleMS int64
	// ReplicationWorkers bounds how many replications of one cell run
	// concurrently. 0 picks min(GOMAXPROCS, 4); 1 forces sequential runs.
	// Replications are independently seeded, so results are identical to a
	// sequential run — except the O metric, which measures real scheduling
	// wall time and can inflate under CPU contention; use 1 worker (or
	// compare only trends) when absolute O values matter. Telemetry runs
	// force a single worker so the event stream stays ordered.
	ReplicationWorkers int
}

// replicationWorkers resolves the effective replication fan-out width.
func (o Options) replicationWorkers() int {
	if o.Telemetry.Enabled() {
		return 1
	}
	if o.ReplicationWorkers > 0 {
		return o.ReplicationWorkers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	if w < 1 {
		w = 1
	}
	return w
}

// comparePolicies resolves which policies the comparison experiments run.
func (o Options) comparePolicies() []string {
	if len(o.ComparePolicies) > 0 {
		return o.ComparePolicies
	}
	return []string{"mrcp", "minedf"}
}

// newManager constructs a registered policy's manager, forwarding the
// MRCP-RM configuration when it applies.
func (o Options) newManager(policy string, cluster sim.Cluster) (sim.ResourceManager, error) {
	popts := rmkit.Options{}
	if policy == "mrcp" {
		popts.Extra = o.ManagerConfig
	}
	return rmkit.New(policy, cluster, popts)
}

// instrument attaches the run's telemetry stream (if any) to a freshly
// built simulator and its resource manager before Run.
func (o Options) instrument(s *sim.Simulator, rm sim.ResourceManager) {
	if !o.Telemetry.Enabled() {
		return
	}
	s.SetTelemetry(o.Telemetry, o.TelemetrySampleMS)
	if im, ok := rm.(interface{ SetTelemetry(*obs.Telemetry) }); ok {
		im.SetTelemetry(o.Telemetry)
	}
}

// DefaultOptions is sized to finish a full figure in minutes on a laptop
// while keeping confidence intervals meaningful.
func DefaultOptions() Options {
	return Options{
		Seed:          1,
		Jobs:          300,
		FacebookJobs:  300,
		Policy:        stats.ReplicationPolicy{MinReps: 3, MaxReps: 6, Level: 0.95, RelTol: 0.02},
		ManagerConfig: core.DefaultConfig(),
	}
}

// FastOptions is sized for the benchmark suite and CI.
func FastOptions() Options {
	o := DefaultOptions()
	o.Jobs = 60
	o.FacebookJobs = 60
	o.Policy = stats.ReplicationPolicy{MinReps: 2, MaxReps: 2, Level: 0.95, RelTol: 0.05}
	return o
}

// Point is one (factor value, manager) cell of a figure.
type Point struct {
	Factor      string
	FactorValue float64
	Manager     string
	Reps        int
	O           stats.Summary // average scheduling time per job, seconds
	T           stats.Summary // average turnaround, seconds
	P           stats.Summary // proportion of late jobs, 0..1
	N           stats.Summary // number of late jobs
	Failed      stats.Summary // failed task attempts (injected failures + outage kills)
	Abandoned   stats.Summary // jobs abandoned after exhausting retry budgets
}

// Result is a regenerated figure.
type Result struct {
	ID     string
	Title  string
	Points []Point
	// Elapsed is the harness wall time.
	Elapsed time.Duration
}

// Table renders the result in the shape of the paper's figures: one row
// per (factor, manager) with the three metrics and 95% confidence
// half-widths.
func (r Result) Table() string {
	out := fmt.Sprintf("%s — %s\n", r.ID, r.Title)
	withFaults := false
	for _, p := range r.Points {
		if p.Failed.Mean > 0 || p.Abandoned.Mean > 0 {
			withFaults = true
			break
		}
	}
	out += fmt.Sprintf("%-16s %-10s %5s  %-22s %-22s %-18s %s\n",
		"factor", "manager", "reps", "O (s/job)", "T (s)", "P (%)", "N")
	for _, p := range r.Points {
		out += fmt.Sprintf("%-16s %-10s %5d  %-22s %-22s %-18s %.1f",
			p.Factor, p.Manager, p.Reps,
			fmtCI(p.O.Mean, p.O.CI(0.95), 4),
			fmtCI(p.T.Mean, p.T.CI(0.95), 1),
			fmtCI(p.P.Mean*100, p.P.CI(0.95)*100, 2),
			p.N.Mean)
		if withFaults {
			out += fmt.Sprintf("  failed=%.1f abandoned=%.1f", p.Failed.Mean, p.Abandoned.Mean)
		}
		out += "\n"
	}
	return out
}

func fmtCI(mean, ci float64, prec int) string {
	return fmt.Sprintf("%.*f ±%.*f", prec, mean, prec, ci)
}

// WriteCSV exports the figure's data points for plotting: one row per
// (factor, manager) with means and 95% confidence half-widths.
func (r Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"experiment", "factor", "factor_value", "manager", "reps",
		"O_mean_s", "O_ci95", "T_mean_s", "T_ci95", "P_mean", "P_ci95", "N_mean",
		"tasks_failed_mean", "jobs_abandoned_mean"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range r.Points {
		row := []string{
			r.ID,
			p.Factor,
			strconv.FormatFloat(p.FactorValue, 'g', -1, 64),
			p.Manager,
			strconv.Itoa(p.Reps),
			strconv.FormatFloat(p.O.Mean, 'g', 8, 64),
			strconv.FormatFloat(p.O.CI(0.95), 'g', 8, 64),
			strconv.FormatFloat(p.T.Mean, 'g', 8, 64),
			strconv.FormatFloat(p.T.CI(0.95), 'g', 8, 64),
			strconv.FormatFloat(p.P.Mean, 'g', 8, 64),
			strconv.FormatFloat(p.P.CI(0.95), 'g', 8, 64),
			strconv.FormatFloat(p.N.Mean, 'g', 8, 64),
			strconv.FormatFloat(p.Failed.Mean, 'g', 8, 64),
			strconv.FormatFloat(p.Abandoned.Mean, 'g', 8, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Spec is a runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Options) (Result, error)
}

// Registry lists every experiment in paper order.
var Registry = []Spec{
	{"fig2", "MRCP-RM vs MinEDF-WC: proportion of late jobs (Facebook workload)", runFacebookComparison},
	{"fig3", "MRCP-RM vs MinEDF-WC: average job turnaround time (Facebook workload)", runFacebookComparison},
	{"fig4", "Effect of task execution time (emax)", runFig4},
	{"fig5", "Effect of earliest start time (smax)", runFig5},
	{"fig6", "Effect of earliest start time probability (p)", runFig6},
	{"fig7", "Effect of deadline multiplier (dUL)", runFig7},
	{"fig8", "Effect of job arrival rate (lambda)", runFig8},
	{"fig9", "Effect of the number of resources (m)", runFig9},
	{"ablation-matchmaking", "Combined-resource + matchmaking vs direct CP matchmaking (Section V.D)", runAblationMatchmaking},
	{"ablation-deferral", "Deferral of far-future jobs on vs off (Section V.E)", runAblationDeferral},
	{"ablation-ordering", "Job ordering strategies: EDF vs job-id vs least laxity (Section VI.B)", runAblationOrdering},
	{"faults", "Effect of task failure rate: MRCP-RM vs MinEDF-WC (robustness)", runFaultSweep},
	{"hetero", "Effect of machine speed heterogeneity: speed-aware vs speed-blind planning", runHeteroSweep},
}

// ByID looks up a Spec.
func ByID(id string) (Spec, bool) {
	for _, s := range Registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// runReplications drives one (factor value, manager) cell: body builds and
// runs a fresh simulation per replication and returns its metrics. Up to
// Options.ReplicationWorkers replications run concurrently; each derives
// its own stream from (Seed, rep), so the collected sample is identical to
// a sequential run.
func runReplications(opts Options, body func(rep int, rng *stats.Stream) (*sim.Metrics, error)) (Point, error) {
	var p Point
	var mu sync.Mutex
	byRep := make(map[int]*sim.Metrics)
	var firstErr error
	primary := opts.Policy.Run(opts.replicationWorkers(), func(rep int) float64 {
		rng := stats.NewStream(opts.Seed, uint64(rep)*0x9e3779b97f4a7c15+uint64(rep)+1)
		m, err := body(rep, rng)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("replication %d: %w", rep, err)
			}
			return 0
		}
		byRep[rep] = m
		return m.T() // the paper's CI criterion is on T
	})
	if firstErr != nil {
		return p, firstErr
	}
	var os, ts, ps, ns, fs, as []float64
	for rep := 0; rep < len(primary); rep++ {
		m := byRep[rep]
		os = append(os, m.O())
		ts = append(ts, m.T())
		ps = append(ps, m.P())
		ns = append(ns, float64(m.N()))
		fs = append(fs, float64(m.TasksFailed+m.TasksKilled))
		as = append(as, float64(m.JobsAbandoned))
	}
	p.Reps = len(ts)
	p.O = stats.Summarize(os)
	p.T = stats.Summarize(ts)
	p.P = stats.Summarize(ps)
	p.N = stats.Summarize(ns)
	p.Failed = stats.Summarize(fs)
	p.Abandoned = stats.Summarize(as)
	return p, nil
}

// runSyntheticCell runs MRCP-RM over a Table 3 configuration.
func runSyntheticCell(opts Options, cfg workload.SyntheticConfig, factor string, value float64) (Point, error) {
	cluster := sim.Cluster{
		NumResources: cfg.NumResources,
		MapSlots:     cfg.MapSlotsPerResource,
		ReduceSlots:  cfg.ReduceSlotsPerResource,
	}
	point, err := runReplications(opts, func(rep int, rng *stats.Stream) (*sim.Metrics, error) {
		jobs, err := cfg.Generate(opts.Jobs, rng)
		if err != nil {
			return nil, err
		}
		mgr, err := opts.newManager("mrcp", cluster)
		if err != nil {
			return nil, err
		}
		s, err := sim.New(cluster, mgr, jobs)
		if err != nil {
			return nil, err
		}
		opts.instrument(s, mgr)
		return s.Run()
	})
	if err != nil {
		return point, err
	}
	point.Factor = factor
	point.FactorValue = value
	point.Manager = "MRCP-RM"
	return point, nil
}

// sweepSynthetic runs a factor-at-a-time sweep (Figs 4-9).
func sweepSynthetic(id, title, factorName string, values []float64,
	apply func(*workload.SyntheticConfig, float64)) func(Options) (Result, error) {
	return func(opts Options) (Result, error) {
		started := time.Now()
		r := Result{ID: id, Title: title}
		for _, v := range values {
			cfg := workload.DefaultSynthetic()
			apply(&cfg, v)
			point, err := runSyntheticCell(opts, cfg, fmt.Sprintf("%s=%g", factorName, v), v)
			if err != nil {
				return r, err
			}
			r.Points = append(r.Points, point)
		}
		r.Elapsed = time.Since(started)
		return r, nil
	}
}

var (
	runFig4 = sweepSynthetic("fig4", "Effect of task execution time", "emax",
		[]float64{10, 50, 100},
		func(c *workload.SyntheticConfig, v float64) { c.EmaxSec = int64(v) })
	runFig5 = sweepSynthetic("fig5", "Effect of earliest start time", "smax",
		[]float64{10000, 50000, 250000},
		func(c *workload.SyntheticConfig, v float64) { c.SmaxSec = int64(v) })
	runFig6 = sweepSynthetic("fig6", "Effect of earliest start time probability", "p",
		[]float64{0.1, 0.5, 0.9},
		func(c *workload.SyntheticConfig, v float64) { c.P = v })
	runFig7 = sweepSynthetic("fig7", "Effect of deadline multiplier", "dUL",
		[]float64{2, 5, 10},
		func(c *workload.SyntheticConfig, v float64) { c.DeadlineUL = v })
	runFig8 = sweepSynthetic("fig8", "Effect of job arrival rate", "lambda",
		[]float64{0.001, 0.01, 0.015, 0.02},
		func(c *workload.SyntheticConfig, v float64) { c.Lambda = v })
	runFig9 = sweepSynthetic("fig9", "Effect of the number of resources", "m",
		[]float64{25, 50, 100},
		func(c *workload.SyntheticConfig, v float64) { c.NumResources = int(v) })
)
