package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func testStream() *Stream { return NewStream(42, 4242) }

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(1, 2), NewStream(1, 2)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestStreamDeriveIndependence(t *testing.T) {
	base := NewStream(7, 7)
	d1 := base.Derive(1)
	d2 := base.Derive(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if d1.Float64() == d2.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams produced %d identical draws out of 1000", same)
	}
}

func TestDiscreteUniformRange(t *testing.T) {
	s := testStream()
	d := DiscreteUniform{Lo: 1, Hi: 100}
	seen := map[int64]bool{}
	for i := 0; i < 20000; i++ {
		v := d.SampleInt(s)
		if v < 1 || v > 100 {
			t.Fatalf("DU[1,100] produced %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("DU[1,100] hit %d distinct values in 20000 draws, want 100", len(seen))
	}
}

func TestDiscreteUniformDegenerate(t *testing.T) {
	s := testStream()
	d := DiscreteUniform{Lo: 5, Hi: 5}
	for i := 0; i < 10; i++ {
		if v := d.SampleInt(s); v != 5 {
			t.Fatalf("DU[5,5] produced %d", v)
		}
	}
}

func TestDiscreteUniformEmptyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DU with hi < lo did not panic")
		}
	}()
	DiscreteUniform{Lo: 2, Hi: 1}.Sample(testStream())
}

func TestUniformRangeAndMean(t *testing.T) {
	s := testStream()
	d := Uniform{Lo: 1, Hi: 5}
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		if v < 1 || v >= 5 {
			t.Fatalf("U[1,5) produced %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("U[1,5] sample mean %g, want ~3", mean)
	}
}

func TestBernoulli(t *testing.T) {
	s := testStream()
	d := Bernoulli{P: 0.3}
	ones := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if d.SampleBool(s) {
			ones++
		}
	}
	if frac := float64(ones) / n; math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) sample frequency %g", frac)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := testStream()
	for i := 0; i < 100; i++ {
		if (Bernoulli{P: 0}).SampleBool(s) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !(Bernoulli{P: 1}).SampleBool(s) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := testStream()
	d := Exponential{Rate: 0.01}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		if v < 0 {
			t.Fatalf("Exponential produced negative %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-100)/100 > 0.03 {
		t.Fatalf("Exp(0.01) sample mean %g, want ~100", mean)
	}
}

func TestLogNormalMean(t *testing.T) {
	s := testStream()
	// Facebook map-task distribution from the paper (ms).
	d := LogNormal{Mu: 9.9511, Sigma2: 1.6764}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		if v <= 0 {
			t.Fatalf("LogNormal produced non-positive %g", v)
		}
		sum += v
	}
	want := d.Mean()
	if mean := sum / n; math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("LN sample mean %g, want ~%g", mean, want)
	}
}

func TestPoissonProcessRate(t *testing.T) {
	s := testStream()
	p := PoissonProcess{Rate: 0.01}
	arr := p.Arrivals(10000, s)
	// The 10000th arrival lands near 1e6 s (one standard deviation is 1 %).
	if last := arr[len(arr)-1]; math.Abs(last-1e6) > 4e4 {
		t.Fatalf("Poisson(0.01): 10000th arrival at %g s, want ~1e6", last)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] <= arr[i-1] {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
	}
}

func TestPoissonProcessArrivalsN(t *testing.T) {
	s := testStream()
	p := PoissonProcess{Rate: 0.5}
	arr := p.Arrivals(100, s)
	if len(arr) != 100 {
		t.Fatalf("Arrivals(100) returned %d instants", len(arr))
	}
	if arr[0] <= 0 {
		t.Fatalf("first arrival %g not positive", arr[0])
	}
}

func TestConstant(t *testing.T) {
	d := Constant{Value: 17}
	if d.Sample(nil) != 17 || d.Mean() != 17 {
		t.Fatal("Constant distribution broken")
	}
}

func TestDistStrings(t *testing.T) {
	cases := []struct {
		d    Dist
		want string
	}{
		{DiscreteUniform{1, 100}, "DU[1,100]"},
		{Uniform{1, 5}, "U[1,5]"},
		{Bernoulli{0.5}, "Bernoulli(0.5)"},
		{Exponential{0.01}, "Exp(rate=0.01)"},
		{LogNormal{9.9511, 1.6764}, "LN(9.9511,1.6764)"},
		{Constant{3}, "Const(3)"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: DU samples always fall inside the closed range, for arbitrary
// valid ranges.
func TestQuickDiscreteUniformInRange(t *testing.T) {
	s := testStream()
	f := func(lo int16, span uint8) bool {
		d := DiscreteUniform{Lo: int64(lo), Hi: int64(lo) + int64(span)}
		v := d.SampleInt(s)
		return v >= d.Lo && v <= d.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: exponential and log-normal variates are always positive.
func TestQuickPositiveVariates(t *testing.T) {
	s := testStream()
	f := func(rateSeed uint8) bool {
		rate := 0.001 + float64(rateSeed)/10
		if (Exponential{Rate: rate}).Sample(s) < 0 {
			return false
		}
		return (LogNormal{Mu: float64(rateSeed) / 32, Sigma2: 1}).Sample(s) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
