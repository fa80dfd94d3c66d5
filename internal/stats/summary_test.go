package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("Mean = %g, want 5", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min, s.Max)
	}
	// Sample stddev with n-1 denominator: sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("StdDev = %g, want %g", s.StdDev, want)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.StdDev != 0 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
	if !math.IsInf(s.CI(0.95), 1) {
		t.Fatal("CI of single sample should be +Inf")
	}
}

// Known two-sided 97.5% t quantiles.
func TestTQuantileKnownValues(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {4, 2.776}, {10, 2.228}, {30, 2.042}, {100, 1.984},
	}
	for _, c := range cases {
		got := tQuantile(0.975, c.df)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("t_{0.975,%d} = %g, want %g", c.df, got, c.want)
		}
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	for _, df := range []int{1, 5, 20} {
		up := tQuantile(0.9, df)
		dn := tQuantile(0.1, df)
		if math.Abs(up+dn) > 1e-6 {
			t.Errorf("df=%d: quantiles not symmetric: %g vs %g", df, up, dn)
		}
	}
	if tQuantile(0.5, 7) != 0 {
		t.Error("median of t distribution should be 0")
	}
}

func TestCIMatchesHandComputation(t *testing.T) {
	xs := []float64{10, 12, 9, 11, 10, 12, 11, 9, 10, 11}
	s := Summarize(xs)
	want := tQuantile(0.975, 9) * s.StdDev / math.Sqrt(10)
	if got := s.CI(0.95); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI = %g, want %g", got, want)
	}
	if rel := s.RelCI(0.95); math.Abs(rel-want/s.Mean) > 1e-12 {
		t.Fatalf("RelCI = %g", rel)
	}
}

func TestRelCIZeroMean(t *testing.T) {
	s := Summarize([]float64{-1, 1})
	if !math.IsInf(s.RelCI(0.95), 1) {
		t.Fatal("RelCI with zero mean should be +Inf")
	}
}

func TestReplicationPolicyStopsOnTightCI(t *testing.T) {
	p := ReplicationPolicy{MinReps: 3, MaxReps: 100, Level: 0.95, RelTol: 0.05}
	// Nearly constant metric: should stop at MinReps.
	got := p.Run(1, func(rep int) float64 { return 100 + float64(rep%2)*0.01 })
	if len(got) != 3 {
		t.Fatalf("ran %d reps, want 3", len(got))
	}
}

func TestReplicationPolicyHitsCap(t *testing.T) {
	p := ReplicationPolicy{MinReps: 2, MaxReps: 7, Level: 0.95, RelTol: 1e-9}
	s := testStream()
	got := p.Run(1, func(rep int) float64 { return s.Float64() })
	if len(got) != 7 {
		t.Fatalf("ran %d reps, want cap 7", len(got))
	}
}

// Property: mean lies within [min, max] and stddev is non-negative.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: regularized incomplete beta is a CDF in x: monotone, 0 at 0, 1 at 1.
func TestQuickRegIncBetaMonotone(t *testing.T) {
	f := func(aSeed, bSeed uint8) bool {
		a := 0.5 + float64(aSeed)/16
		b := 0.5 + float64(bSeed)/16
		prev := 0.0
		for i := 0; i <= 20; i++ {
			x := float64(i) / 20
			v := regIncBeta(a, b, x)
			if v < prev-1e-9 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return math.Abs(regIncBeta(a, b, 1)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
