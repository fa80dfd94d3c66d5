package main

import (
	"fmt"
	"slices"
	"time"
)

// workloadDef is one named workload: how to run one repetition of it on
// fresh objects, and (intake-fifo only) the once-per-run output check and
// the twin runs behind its per-layer split.
type workloadDef struct {
	name   string
	size   string
	runRep func(seed uint64, traced bool) (*rep, error)
	// opMetric names the per-layer percentiles of the workload's operation
	// ("resched_ms", "submit_us"; empty for none) and opUnitNS is that
	// unit in nanoseconds.
	opMetric string
	opUnitNS float64
	// check verifies outputs beyond what every repetition already checks;
	// it returns the reasons the output is wrong, if any.
	check func(seed uint64, r *rep) []string
	// twins measures layers that can only be separated by running the same
	// stream through a shorter path and subtracting from opNS, the median
	// latency of the full path; it returns its own spans.
	twins func(seed uint64, opNS float64, L map[string]float64) ([]span, error)
}

// minReps is the fewest untraced repetitions a run makes however slow the
// host: medians need at least three.
const minReps = 3

// variantSeed derives the jitter seed of a run's k-th repetition. Every
// repetition runs a different jitter of the workload's input: the solver's
// search is chaotic in its inputs (one jitter against another moves
// jobs_per_s by several percent on its own), so a run reports the median
// over several jitters rather than one jitter measured several times.
func variantSeed(seed uint64, k int) uint64 {
	return seed*1_000_003 + uint64(k)
}

// runReps runs repetitions on fresh objects until the time budget is used.
// With alternate set, every untraced repetition is followed by a traced one
// of the same variant, so both kinds see the same inputs and host
// conditions and the pair checks that tracing changes no output.
func runReps(def workloadDef, seed uint64, budget time.Duration, alternate bool) (untraced, traced []*rep, err error) {
	start := time.Now()
	var longest time.Duration
	for k := 0; ; k++ {
		t := time.Now()
		r, err := def.runRep(variantSeed(seed, k), false)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", def.name, err)
		}
		untraced = append(untraced, r)
		if alternate {
			r, err := def.runRep(variantSeed(seed, k), true)
			if err != nil {
				return nil, nil, fmt.Errorf("%s (traced): %w", def.name, err)
			}
			if len(traced) > 0 {
				r.spans = nil // the trace file holds variant 0 only
			}
			traced = append(traced, r)
		}
		longest = max(longest, time.Since(t))
		if (alternate || len(untraced) >= minReps) && time.Since(start)+longest > budget {
			return untraced, traced, nil
		}
	}
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string             `json:"workload"`
	Size        string             `json:"size"`
	Seed        uint64             `json:"seed"`
	Reps        int                `json:"reps"`
	TracedReps  int                `json:"traced_reps"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Fingerprint string             `json:"fingerprint"`
	Problems    []string           `json:"problems,omitempty"`
	EndToEnd    map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	// Samples is the number of samples behind each latency figure;
	// TailIs names the percentile op_ms_tail stands for on this workload.
	Samples map[string]int `json:"samples,omitempty"`
	TailIs  string         `json:"tail_is,omitempty"`

	ops []opStats // per untraced repetition
}

func (res *result) problem(format string, args ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// opStats is one repetition's latency figures: the median and the tail
// whatever the sample size, and the named percentiles the
// ten-samples-beyond rule allows (a withheld one is absent).
type opStats struct {
	median, tail float64
	tailIs       string // which percentile tail is: p99, p90 or p50
	named        map[string]float64
}

func opStatsOf(r *rep) opStats {
	vs := make([]float64, len(r.ops))
	for i, d := range r.ops {
		vs[i] = float64(d)
	}
	st := opStats{median: median(vs), named: map[string]float64{}}
	st.tail, st.tailIs = tail(vs)
	for _, p := range []struct {
		q     float64
		label string
	}{{0.5, "p50"}, {0.9, "p90"}, {0.99, "p99"}} {
		if v, ok := percentile(vs, p.q); ok {
			st.named[p.label] = v
		}
	}
	return st
}

func opStatsAll(reps []*rep) []opStats {
	out := make([]opStats, len(reps))
	for i, r := range reps {
		out[i] = opStatsOf(r)
	}
	return out
}

// summarize folds the repetitions of one run into its result. End-to-end
// metrics come from the untraced repetitions only: a timing is the median
// across repetitions (each a different jitter of the input); ontime_frac
// and turnaround_s, which no clock enters, are those of variant 0.
func summarize(def workloadDef, seed uint64, untraced, traced []*rep) *result {
	res := &result{Workload: def.name, Size: def.size, Seed: seed,
		Reps: len(untraced), TracedReps: len(traced), Samples: map[string]int{}}
	first := untraced[0]
	res.Fingerprint = fmt.Sprintf("%016x", first.fingerprint)
	for _, r := range append(append([]*rep(nil), untraced...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	// Traced repetition k re-runs untraced repetition k's variant: the
	// stream is deterministic, so outputs and per-operation node counts
	// must repeat exactly, tracing or not.
	for k, r := range traced {
		switch u := untraced[k]; {
		case r.fingerprint != u.fingerprint:
			res.Failed++
			res.problem("variant %d: fingerprint %016x traced, %016x untraced", k, r.fingerprint, u.fingerprint)
		case !slices.Equal(r.opNodes, u.opNodes) || len(r.ops) != len(u.ops):
			res.Failed++
			res.problem("variant %d: per-operation node counts differ between the traced and untraced repetition", k)
		}
	}
	if res.Failed > 0 && len(res.Problems) == 0 {
		res.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}

	ops := opStatsAll(untraced)
	res.ops, res.TailIs = ops, ops[0].tailIs
	res.Samples["op_ms_p50"], res.Samples["op_ms_tail"] = len(first.ops), len(first.ops)
	res.EndToEnd = map[string]float64{
		"setup_s":    medianOf(untraced, func(r *rep) float64 { return r.setup.Seconds() }),
		"jobs_per_s": medianOf(untraced, jobsPerS),
		"sched_ms_per_job": medianOf(untraced, func(r *rep) float64 {
			return ratio(float64(r.sched)/1e6, float64(r.jobs))
		}),
		"op_ms_p50":    medianOf(ops, func(o opStats) float64 { return o.median }) / 1e6,
		"op_ms_tail":   medianOf(ops, func(o opStats) float64 { return o.tail }) / 1e6,
		"ontime_frac":  first.ontime,
		"turnaround_s": first.turnaround,
		"alloc_kb_per_job": medianOf(untraced, func(r *rep) float64 {
			return ratio(float64(r.mem.allocBytes)/1024, float64(r.jobs))
		}),
	}
	return res
}

func jobsPerS(r *rep) float64 { return ratio(float64(r.jobs), r.run.Seconds()) }

// layers folds the traced repetitions into the per-layer table: the median
// of each figure across them, the tracing overhead of each traced
// repetition against the untraced one of the same variant, and the named
// latency percentiles of the workload's operation (reported only with
// minBeyond samples beyond them; 0 otherwise).
func layers(def workloadDef, res *result, untraced, traced []*rep) {
	L := map[string]float64{}
	for k := range traced[0].layer {
		L[k] = medianOf(traced, func(r *rep) float64 { return r.layer[k] })
	}
	overhead := make([]float64, len(traced))
	for k, r := range traced {
		overhead[k] = ratio(jobsPerS(r), jobsPerS(untraced[k])) - 1
	}
	L["obs.overhead_frac"] = median(overhead)

	if untraced[0].submit > 0 {
		L["submit_per_s"] = medianOf(untraced, func(r *rep) float64 {
			return ratio(float64(len(r.ops)), r.submit.Seconds())
		})
	}
	if def.opMetric != "" {
		for label := range res.ops[0].named {
			var vs []float64
			for _, o := range res.ops {
				if v, ok := o.named[label]; ok {
					vs = append(vs, v)
				}
			}
			name := def.opMetric + "_" + label
			L[name] = median(vs) / def.opUnitNS
			res.Samples[name] = len(untraced[0].ops)
		}
	}
	L["late_frac"] = 1 - untraced[0].ontime
	L["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.PerLayer = L
}
