package main

import (
	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// Inputs are heavy-tailed: a few reschedules that exhaust the node budget,
// or one long backlog episode, carry most of a run's time, so re-drawing a
// whole stream moves every timing metric by 35-75 % (README.md has the
// probe) — far outside any regression bound. The shape of each workload's
// input is therefore fixed by baseSeed, and -seed moves every job (arrival,
// earliest start and deadline together) later by up to jitterMS: every
// model the solver sees, and every tie it breaks, differs between seeds,
// while the load the stream offers does not.
const (
	baseSeed = 1
	jitterMS = 1000
)

// generate draws n Table 3 jobs of the workload's fixed shape and applies
// the seed's jitter.
func generate(gen workload.SyntheticConfig, n int, tag, seed uint64) ([]*workload.Job, error) {
	jobs, err := gen.Generate(n, stats.NewStream(baseSeed, tag))
	if err != nil {
		return nil, err
	}
	rng := stats.NewStream(seed, tag)
	for _, j := range jobs {
		d := rng.Int64N(jitterMS)
		j.Arrival += d
		j.EarliestStart += d
		j.Deadline += d
	}
	return jobs, nil
}

// Each workload draws its jobs from its own random stream, so the five
// inputs are unrelated.
const (
	tagPaper  = 0xbe01
	tagWarm   = 0xbe02
	tagBatch  = 0xbe10 // + instance index
	tagHetero = 0xbe03
	tagIntake = 0xbe04
)

// workloads returns the five named workloads. div scales every input down
// (1 = the sizes BENCHMARK.json states; the -short smoke test uses 20);
// tmp is where intake-fifo puts its journal segments.
//
// Why each exists, and which layer it loads, is in README.md and in the
// "why" lines of BENCHMARK.json; sizes were tuned on the seed commit so
// one repetition takes a few seconds on a 2-core host.
func workloads(div int, tmp string) []workloadDef {
	table3 := workload.DefaultSynthetic()

	// The paper's Fig 4-9 operating point: mostly ~1 ms reschedules of
	// small models, a minority that exhaust the node budget in search.
	paper := streamSpec{gen: table3, jobs: 1100, cluster: uniformCluster,
		cfg: benchConfig(500), rngTag: tagPaper}.scaled(div)

	// A standing backlog with warm starts: every reschedule rebuilds a
	// large model and hint-descends it once; backtracking is rare.
	warmGen := table3
	warmGen.Lambda = 0.03
	warmCfg := benchConfig(2000)
	warmCfg.WarmStart = true
	warm := streamSpec{gen: warmGen, jobs: 800, cluster: uniformCluster,
		cfg: warmCfg, rngTag: tagWarm}.scaled(div)

	// One large model per solve, nothing but propagation and search.
	batchGen := table3
	batchGen.NumResources = 10
	batch := batchSpec{gen: batchGen, instances: 10, jobs: 20,
		cfg: benchConfig(7000), rngTag: tagBatch}.scaled(div)

	// The other formulation: two speed classes and a memory dimension
	// force the direct model with per-resource duration tables.
	heteroGen := table3
	heteroGen.TaskMemLo, heteroGen.TaskMemHi = 1, 4
	hetero := streamSpec{gen: heteroGen, jobs: 200, cfg: benchConfig(1000), rngTag: tagHetero,
		cluster: func(g workload.SyntheticConfig) (sim.Cluster, error) {
			spec := core.TwoClassSpec(g.NumResources, g.MapSlotsPerResource, g.ReduceSlotsPerResource, 2)
			spec.MemCapacity = 8
			return spec.Cluster()
		}}.scaled(div)

	// The daemon's fixed per-job cost with CP bypassed.
	intakeGen := table3
	intakeGen.NumResources = 25
	intake := intakeSpec{gen: intakeGen, jobs: 600, shards: 2, rngTag: tagIntake, tmp: tmp}.scaled(div)

	return []workloadDef{
		{name: "paper-stream", size: paper.size(), runRep: paper.runRep, opMetric: "resched_ms", opUnitNS: 1e6},
		{name: "backlog-warm", size: warm.size(), runRep: warm.runRep, opMetric: "resched_ms", opUnitNS: 1e6},
		{name: "batch-solve", size: batch.size(), runRep: batch.runRep},
		{name: "hetero-stream", size: hetero.size(), runRep: hetero.runRep, opMetric: "resched_ms", opUnitNS: 1e6},
		{name: "intake-fifo", size: intake.size(), runRep: intake.runRep, opMetric: "submit_us", opUnitNS: 1e3,
			check: intake.check, twins: intake.twins},
	}
}
