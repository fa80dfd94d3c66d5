package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // descending: percentile must sort a copy
		}
		return vs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1, 0.99, 1, false},
	} {
		vs := seq(c.n)
		v, ok := percentile(vs, c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
		if vs[0] != float64(c.n) {
			t.Fatalf("percentile reordered its input")
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported a value")
	}
}

func TestTailFallsBackToHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{5, "p50"}, {150, "p90"}, {1500, "p99"}} {
		vs := make([]float64, c.n)
		for i := range vs {
			vs[i] = float64(i)
		}
		if _, label := tail(vs); label != c.label {
			t.Errorf("tail of %d samples chose %s, want %s", c.n, label, c.label)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", m)
	}
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median of an odd count = %g, want 5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %g, want 0", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: spanRun, parent: -1, start: 0, end: 100},
		{name: spanStep, parent: 0, start: 10, end: 50},
		{name: spanStep, parent: 0, start: 40, end: 70},  // overlaps the first by 10
		{name: spanStep, parent: 0, start: 90, end: 120}, // sticks out of the parent by 20
		{name: spanArrival, parent: 1, start: 20, end: 30},
		{name: spanSolve, parent: 4, start: 15, end: 28}, // back-dated before its parent
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (60 + 10), // children cover [10,70] and [90,100]
		40 - 10,
		30,
		30,
		10 - 8, // child clipped to [20,28]
		13,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%v) = %d, want %d", i, spans[i].name, self[i], want[i])
		}
	}
	by := byLayer(spans)
	if by["sim"].count != 3 || by["sim"].busy != 100 || by["sim"].self != 90 {
		t.Errorf("sim layer = %+v", *by["sim"])
	}
}

// TestSmokeAllWorkloads runs the five workloads at 1/20 size, two untraced
// repetitions and one traced, and requires every metric BENCHMARK.json
// names to come out present and finite.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	defs := workloads(20, t.TempDir())
	if len(defs) != len(spec.Workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(defs), len(spec.Workloads))
	}
	h := &harness{spec: spec, outDir: t.TempDir(), seed: 1}
	seenLayer := map[string]bool{}
	for i, def := range defs {
		if def.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, def.name, spec.Workloads[i].Name)
		}
		var untraced []*rep
		for r := 0; r < 2; r++ {
			one, err := def.runRep(variantSeed(h.seed, r), false)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			untraced = append(untraced, one)
		}
		res, err := h.finish(def, untraced, nil, true)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: incorrect: %v", def.name, res.Problems)
		}
		for _, m := range spec.EndToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); must be finite and positive", def.name, m.Name, v, ok)
			}
		}
		for k, v := range res.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v", def.name, k, v)
			}
			seenLayer[k] = true
		}
		if c := res.PerLayer["trace.coverage"]; def.twins == nil && (c < 0.5 || c > 1.0001) {
			t.Errorf("%s: layers' self times cover %.3f of the run wall", def.name, c)
		}
	}
	for _, m := range spec.PerLayer {
		// Percentiles are withheld at this size by the ten-samples-beyond
		// rule; every other named metric must be produced somewhere.
		if !seenLayer[m.Name] && !isPercentile(m.Name) {
			t.Errorf("per-layer metric %s is named in BENCHMARK.json but no workload produced it", m.Name)
		}
	}
}

func isPercentile(name string) bool {
	return strings.HasPrefix(name, "resched_ms_") || strings.HasPrefix(name, "submit_us_")
}
