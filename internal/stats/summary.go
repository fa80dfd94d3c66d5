package stats

import (
	"fmt"
	"math"
)

// Summary holds sample statistics for one performance metric collected
// across simulation replications.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes sample statistics. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// CI returns the half-width of the confidence interval around the mean at
// the given confidence level (e.g. 0.95), using the Student-t distribution
// with N-1 degrees of freedom. It returns +Inf for samples of size < 2.
func (s Summary) CI(level float64) float64 {
	if s.N < 2 {
		return math.Inf(1)
	}
	t := tQuantile(1-(1-level)/2, s.N-1)
	return t * s.StdDev / math.Sqrt(float64(s.N))
}

// RelCI returns CI(level)/|mean|, the relative confidence half-width used by
// the paper's stopping rule (±1% of the average for T at 95% confidence).
// It returns +Inf when the mean is zero or the sample is too small.
func (s Summary) RelCI(level float64) float64 {
	if s.Mean == 0 {
		return math.Inf(1)
	}
	return s.CI(level) / math.Abs(s.Mean)
}

// String formats the summary as "mean ± ci95 (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI(0.95), s.N)
}

// tQuantile returns the q-quantile of the Student-t distribution with df
// degrees of freedom. It inverts the CDF by bisection on top of a series
// implementation of the regularized incomplete beta function; the accuracy
// is far beyond what the replication stopping rule needs.
func tQuantile(q float64, df int) float64 {
	if df < 1 {
		panic("stats: tQuantile needs df >= 1")
	}
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("stats: tQuantile quantile %g out of (0,1)", q))
	}
	if q == 0.5 {
		return 0
	}
	// t CDF is monotone; bracket then bisect.
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, float64(df)) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tCDF is the CDF of the Student-t distribution with df degrees of freedom.
func tCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x)
	}
	// Symmetry relation.
	lbetaSwap := math.Exp(math.Log(1-x)*b+math.Log(x)*a+lbeta) / b
	return 1 - lbetaSwap*betacf(b, a, 1-x)
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
