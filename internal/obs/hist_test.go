package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistBoundsShape(t *testing.T) {
	b := HistBounds()
	if len(b) != numHistBounds {
		t.Fatalf("bounds len = %d, want %d", len(b), numHistBounds)
	}
	if b[0] != 1 {
		t.Fatalf("bounds[0] = %v, want 1", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
		ratio := b[i] / b[i-1]
		if math.Abs(ratio-math.Sqrt2) > 1e-9 {
			t.Fatalf("bucket ratio at %d = %v, want sqrt(2)", i, ratio)
		}
	}
	if b[len(b)-1] < 2e9 {
		t.Fatalf("top bound %v does not cover ~2^31 ms", b[len(b)-1])
	}
}

func TestHistBucketPlacement(t *testing.T) {
	b := HistBounds()
	// Every bound value must land in its own bucket (bounds are inclusive
	// upper edges), and a value just above must land in the next one.
	for i, ub := range b {
		if got := histBucket(ub); got != i {
			t.Fatalf("histBucket(%v) = %d, want %d", ub, got, i)
		}
		if i+1 < numHistBuckets {
			if got := histBucket(ub * 1.0001); got != i+1 {
				t.Fatalf("histBucket(%v) = %d, want %d", ub*1.0001, got, i+1)
			}
		}
	}
	if got := histBucket(-5); got != 0 {
		t.Fatalf("negative value bucket = %d, want 0", got)
	}
	if got := histBucket(0); got != 0 {
		t.Fatalf("zero bucket = %d, want 0", got)
	}
	if got := histBucket(math.MaxFloat64); got != numHistBounds {
		t.Fatalf("overflow bucket = %d, want %d", got, numHistBounds)
	}
}

func TestHistogramNilInert(t *testing.T) {
	var h *Histogram
	h.Observe(42) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("nil histogram snapshot not zero: %+v", s)
	}
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 4, 8, 16} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 31 {
		t.Fatalf("sum = %v, want 31", s.Sum)
	}
	if s.Min != 1 || s.Max != 16 {
		t.Fatalf("min/max = %v/%v, want 1/16", s.Min, s.Max)
	}
	if m := s.Mean(); math.Abs(m-6.2) > 1e-12 {
		t.Fatalf("mean = %v, want 6.2", m)
	}
}

// TestQuantileWithinBucketWidth checks the advertised accuracy contract:
// an estimated quantile is never off from the exact sample quantile by
// more than one bucket (a factor of sqrt(2)).
func TestQuantileWithinBucketWidth(t *testing.T) {
	var h Histogram
	var vals []float64
	// Log-uniform spread over three decades plus a heavy cluster.
	for i := 0; i < 1000; i++ {
		v := math.Pow(10, 3*float64(i)/999)
		vals = append(vals, v)
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := s.Quantile(q)
		lo, hi := exact/math.Sqrt2, exact*math.Sqrt2
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("q=%v: estimate %v outside [%v, %v] around exact %v",
				q, got, lo, hi, exact)
		}
	}
}

func TestQuantileSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(100)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 100 {
			t.Fatalf("q=%v of single value = %v, want 100", q, got)
		}
	}
}

func TestQuantileNegativeValues(t *testing.T) {
	// Lateness histograms observe negative values (early jobs); they all
	// land in bucket 0, whose lower edge must anchor at the observed min,
	// not at zero.
	var h Histogram
	h.Observe(-5000)
	h.Observe(-3000)
	h.Observe(-100)
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := s.Quantile(q)
		if got < -5000 || got > -100 {
			t.Fatalf("q=%v of all-negative histogram = %v, want within [-5000,-100]", q, got)
		}
	}
	if p1, p99 := s.Quantile(0.01), s.Quantile(0.99); p1 > p99 {
		t.Fatalf("quantiles not monotone: p1=%v > p99=%v", p1, p99)
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	var h Histogram
	big := 1e12
	h.Observe(big)
	h.Observe(big * 2)
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != big*2 {
		t.Fatalf("overflow quantile = %v, want max %v", got, big*2)
	}
}

func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) / 10)
				if i%64 == 0 {
					_ = h.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, c := range s.Buckets {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestTelemetryObserveRegistry(t *testing.T) {
	tel := New(&MemorySink{})
	tel.Observe("solve_ms", 5)
	tel.Observe("solve_ms", 50)
	tel.Observe("e2e_ms", 500)
	snaps := tel.HistSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d histograms, want 2", len(snaps))
	}
	if snaps[0].Name != "e2e_ms" || snaps[1].Name != "solve_ms" {
		t.Fatalf("names not sorted: %q, %q", snaps[0].Name, snaps[1].Name)
	}
	if snaps[1].Count != 2 || snaps[0].Count != 1 {
		t.Fatalf("counts = %d/%d, want 2/1", snaps[1].Count, snaps[0].Count)
	}
	// Cached-pointer path observes the same underlying histogram.
	h := tel.Hist("solve_ms")
	h.Observe(7)
	if got := tel.Hist("solve_ms").Snapshot().Count; got != 3 {
		t.Fatalf("count after cached observe = %d, want 3", got)
	}
}

func TestNilTelemetryObserveInert(t *testing.T) {
	var tel *Telemetry
	tel.Observe("x", 1) // must not panic
	if h := tel.Hist("x"); h != nil {
		t.Fatal("nil telemetry returned a live histogram")
	}
	if s := tel.HistSnapshots(); s != nil {
		t.Fatalf("nil telemetry snapshots = %v, want nil", s)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tel.Observe("x", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled Observe allocates %v per call, want 0", allocs)
	}
}

func TestEmitSummaryHistEvents(t *testing.T) {
	sink := &MemorySink{}
	tel := New(sink)
	tel.Observe("e2e_ms", 10)
	tel.Observe("e2e_ms", 20)
	tel.Observe("wall_solve_ms", 3.5)
	tel.EmitSummary(1234)
	var simHist, wallHist *Event
	for i, e := range sink.Events() {
		if e.Layer == "obs" && e.Kind == "hist" {
			ev := sink.Events()[i]
			switch ev.Fields[0].s {
			case "e2e_ms":
				simHist = &ev
			case "wall_solve_ms":
				wallHist = &ev
			}
		}
	}
	if simHist == nil || wallHist == nil {
		t.Fatalf("missing hist summary events (sim=%v wall=%v)", simHist != nil, wallHist != nil)
	}
	// Sim-time histogram: plain keys. Wall histogram: value keys carry the
	// wall_ prefix so the determinism-stripping regex removes them.
	keyset := func(e *Event) map[string]bool {
		m := map[string]bool{}
		for _, f := range e.Fields {
			m[f.Key] = true
		}
		return m
	}
	sk := keyset(simHist)
	for _, k := range []string{"name", "count", "sum", "min", "max", "p50", "p90", "p95", "p99"} {
		if !sk[k] {
			t.Fatalf("sim hist event missing key %q (have %v)", k, sk)
		}
	}
	wk := keyset(wallHist)
	for _, k := range []string{"name", "count", "wall_sum", "wall_min", "wall_max", "wall_p50", "wall_p90", "wall_p95", "wall_p99"} {
		if !wk[k] {
			t.Fatalf("wall hist event missing key %q (have %v)", k, wk)
		}
	}
	if wk["sum"] || wk["p99"] {
		t.Fatalf("wall hist event leaked unprefixed value keys: %v", wk)
	}
}
