// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI), plus the ablations called out in DESIGN.md and
// micro-benchmarks of the CP substrate.
//
// Each BenchmarkFigN runs the corresponding experiment at benchmark scale
// (experiment.FastOptions) and reports the figure's metrics through
// b.ReportMetric; the full-size tables behind EXPERIMENTS.md come from
// `go run ./cmd/experiments`. Run with -v to see the regenerated tables.
package mrcprm_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"mrcprm"
	"mrcprm/internal/experiment"
	"mrcprm/internal/workload"
)

// benchFigure runs one experiment per iteration and reports its metric
// columns. The metric names encode the factor value so the figure's series
// is visible in the benchmark output.
func benchFigure(b *testing.B, id string) {
	spec, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiment.FastOptions()
	var last experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := spec.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, p := range last.Points {
		tag := sanitize(p.Factor)
		if strings.HasPrefix(id, "fig2") || strings.HasPrefix(id, "fig3") {
			tag = sanitize(p.Manager) + "_" + tag
		}
		b.ReportMetric(p.P.Mean*100, "P%_"+tag)
		b.ReportMetric(p.T.Mean, "T_s_"+tag)
		b.ReportMetric(p.O.Mean*1000, "O_ms_"+tag)
	}
	b.Log("\n" + last.Table())
}

func sanitize(s string) string {
	return strings.NewReplacer("=", "", " ", "", "-", "").Replace(s)
}

// Figs 2 and 3 share one sweep: the MRCP-RM vs MinEDF-WC comparison on the
// Facebook workload. Fig 2 is the P column, Fig 3 the T column.
func BenchmarkFig2FacebookLateJobs(b *testing.B) { benchFigure(b, "fig2") }

func BenchmarkFig3FacebookTurnaround(b *testing.B) { benchFigure(b, "fig3") }

// Factor-at-a-time experiments over the Table 3 synthetic workload.
func BenchmarkFig4TaskExecutionTime(b *testing.B) { benchFigure(b, "fig4") }

func BenchmarkFig5EarliestStartTime(b *testing.B) { benchFigure(b, "fig5") }

func BenchmarkFig6EarliestStartProbability(b *testing.B) { benchFigure(b, "fig6") }

func BenchmarkFig7Deadline(b *testing.B) { benchFigure(b, "fig7") }

func BenchmarkFig8ArrivalRate(b *testing.B) { benchFigure(b, "fig8") }

func BenchmarkFig9NumResources(b *testing.B) { benchFigure(b, "fig9") }

// Ablations of the paper's design choices (DESIGN.md §5).
func BenchmarkAblationCombinedVsDirect(b *testing.B) { benchFigure(b, "ablation-matchmaking") }

func BenchmarkAblationDeferral(b *testing.B) { benchFigure(b, "ablation-deferral") }

// Table 3: synthetic workload generation throughput.
func BenchmarkTable3SyntheticGenerator(b *testing.B) {
	cfg := workload.DefaultSynthetic()
	rng := mrcprm.NewStream(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Generate(100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 4: Facebook workload generation throughput.
func BenchmarkTable4FacebookGenerator(b *testing.B) {
	cfg := workload.FacebookConfig{NumJobs: 100, Lambda: 0.0005, DeadlineUL: 2, NumResources: 64}
	rng := mrcprm.NewStream(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Generate(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1: one CP solve of the full formulation (closed-system batch).
func BenchmarkTable1BatchSolve(b *testing.B) {
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 10
	jobs, err := cfg.Generate(10, mrcprm.NewStream(3, 4))
	if err != nil {
		b.Fatal(err)
	}
	cluster := mrcprm.Cluster{NumResources: 10, MapSlots: 2, ReduceSlots: 2}
	mcfg := mrcprm.DefaultConfig()
	mcfg.SolveTimeLimit = 0
	mcfg.NodeLimit = 3_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrcprm.SolveBatch(cluster, jobs, mcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 2: the incremental open-system algorithm — one full simulation of
// a job stream under MRCP-RM, i.e. repeated regenerate-freeze-resolve
// rounds.
func BenchmarkTable2IncrementalManager(b *testing.B) {
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 10
	cfg.NumMapHi = 20
	cfg.NumReduceHi = 10
	cfg.Lambda = 0.05
	cluster := mrcprm.Cluster{NumResources: 10, MapSlots: 2, ReduceSlots: 2}
	mcfg := mrcprm.DefaultConfig()
	mcfg.SolveTimeLimit = 0
	mcfg.NodeLimit = 10_000
	for i := 0; i < b.N; i++ {
		jobs, err := cfg.Generate(40, mrcprm.NewStream(5, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mrcprm.Simulate(cluster, mrcprm.NewManager(cluster, mcfg), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmark: a single large first descent (a type-9/10 Facebook job
// arriving alone), the dominant cost inside O for giant jobs.
func BenchmarkSolverGiantJobDescent(b *testing.B) {
	fb := workload.FacebookConfig{NumJobs: 1, Lambda: 0.001, DeadlineUL: 2, NumResources: 64}
	cluster := mrcprm.Cluster{NumResources: 64, MapSlots: 1, ReduceSlots: 1}
	mcfg := mrcprm.DefaultConfig()
	for i := 0; i < b.N; i++ {
		rng := mrcprm.NewStream(8, uint64(i))
		jobs, err := fb.Generate(rng)
		if err != nil {
			b.Fatal(err)
		}
		// Replace the job with a synthetic type-9 shape so every iteration
		// is giant regardless of the sampled mix.
		giant := &mrcprm.Job{ID: 0, Arrival: 0, EarliestStart: 0, Deadline: 1 << 40}
		for k := 0; k < 2400; k++ {
			giant.MapTasks = append(giant.MapTasks, &mrcprm.Task{
				ID: fmt.Sprintf("t0_m%d", k+1), JobID: 0, Type: mrcprm.MapTask,
				Exec: jobs[0].MapTasks[0].Exec%50_000 + 1000, Req: 1})
		}
		for k := 0; k < 360; k++ {
			giant.ReduceTasks = append(giant.ReduceTasks, &mrcprm.Task{
				ID: fmt.Sprintf("t0_r%d", k+1), JobID: 0, Type: mrcprm.ReduceTask,
				Exec: 400_000, Req: 1})
		}
		if _, err := mrcprm.Simulate(cluster, mrcprm.NewManager(cluster, mcfg), []*mrcprm.Job{giant}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTelemetry runs the incremental-manager scenario once per iteration
// with the given telemetry handle; comparing the On/Off variants measures
// the throughput cost of full instrumentation versus the inert nil handle.
func benchTelemetry(b *testing.B, makeTel func() *mrcprm.Telemetry) {
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 10
	cfg.NumMapHi = 20
	cfg.NumReduceHi = 10
	cfg.Lambda = 0.05
	cluster := mrcprm.Cluster{NumResources: 10, MapSlots: 2, ReduceSlots: 2}
	mcfg := mrcprm.DefaultConfig()
	mcfg.SolveTimeLimit = 0
	mcfg.NodeLimit = 10_000
	for i := 0; i < b.N; i++ {
		jobs, err := cfg.Generate(40, mrcprm.NewStream(5, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		mgr := mrcprm.NewManager(cluster, mcfg)
		if _, err := mrcprm.SimulateInstrumented(cluster, mgr, jobs, nil, nil, makeTel()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTelemetryOff(b *testing.B) {
	benchTelemetry(b, func() *mrcprm.Telemetry { return nil })
}

func BenchmarkTelemetryOn(b *testing.B) {
	benchTelemetry(b, func() *mrcprm.Telemetry { return mrcprm.NewJSONLTelemetry(io.Discard) })
}
