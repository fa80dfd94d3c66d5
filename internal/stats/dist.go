package stats

import (
	"fmt"
	"math"
)

// DiscreteUniform is the DU[lo, hi] distribution of Table 3: integers drawn
// uniformly from the closed range [lo, hi].
type DiscreteUniform struct {
	Lo, Hi int64
}

// Sample draws an integer-valued variate as a float64.
func (d DiscreteUniform) Sample(s *Stream) float64 {
	if d.Hi < d.Lo {
		panic(fmt.Sprintf("stats: DU[%d,%d] has empty range", d.Lo, d.Hi))
	}
	return float64(d.Lo + s.Int64N(d.Hi-d.Lo+1))
}

// SampleInt draws an integer variate directly.
func (d DiscreteUniform) SampleInt(s *Stream) int64 {
	return int64(d.Sample(s))
}

// Mean returns (lo+hi)/2.
func (d DiscreteUniform) Mean() float64 { return float64(d.Lo+d.Hi) / 2 }

func (d DiscreteUniform) String() string { return fmt.Sprintf("DU[%d,%d]", d.Lo, d.Hi) }

// Uniform is the continuous U[lo, hi] distribution used for the deadline
// multiplier in Table 3.
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a variate uniformly from [lo, hi).
func (d Uniform) Sample(s *Stream) float64 {
	if d.Hi < d.Lo {
		panic(fmt.Sprintf("stats: U[%g,%g] has empty range", d.Lo, d.Hi))
	}
	return d.Lo + s.Float64()*(d.Hi-d.Lo)
}

// Mean returns (lo+hi)/2.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

func (d Uniform) String() string { return fmt.Sprintf("U[%g,%g]", d.Lo, d.Hi) }

// Bernoulli models the x ~ Bernoulli(p) indicator deciding whether a job's
// earliest start time lies strictly after its arrival time.
type Bernoulli struct {
	P float64
}

// Sample returns 1 with probability P and 0 otherwise.
func (d Bernoulli) Sample(s *Stream) float64 {
	if d.P < 0 || d.P > 1 {
		panic(fmt.Sprintf("stats: Bernoulli(%g) probability out of range", d.P))
	}
	if s.Float64() < d.P {
		return 1
	}
	return 0
}

// SampleBool draws a boolean variate.
func (d Bernoulli) SampleBool(s *Stream) bool { return d.Sample(s) == 1 }

// Mean returns P.
func (d Bernoulli) Mean() float64 { return d.P }

func (d Bernoulli) String() string { return fmt.Sprintf("Bernoulli(%g)", d.P) }

// Exponential is the exponential distribution with the given rate, used for
// Poisson-process inter-arrival times (Table 3's arrival row).
type Exponential struct {
	Rate float64
}

// Sample draws an exponential variate.
func (d Exponential) Sample(s *Stream) float64 {
	if d.Rate <= 0 {
		panic(fmt.Sprintf("stats: Exponential rate %g must be positive", d.Rate))
	}
	return s.ExpFloat64() / d.Rate
}

// Mean returns 1/rate.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

func (d Exponential) String() string { return fmt.Sprintf("Exp(rate=%g)", d.Rate) }

// LogNormal is the LN(mu, sigma2) distribution of Section VI.B.1, with mu and
// sigma2 the mean and variance of the underlying normal (the parameterization
// used by Verma et al. for the Facebook task execution times).
type LogNormal struct {
	Mu     float64
	Sigma2 float64
}

// Sample draws a log-normal variate.
func (d LogNormal) Sample(s *Stream) float64 {
	if d.Sigma2 < 0 {
		panic(fmt.Sprintf("stats: LN variance %g must be non-negative", d.Sigma2))
	}
	return math.Exp(d.Mu + math.Sqrt(d.Sigma2)*s.NormFloat64())
}

// Mean returns exp(mu + sigma2/2).
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma2/2) }

func (d LogNormal) String() string { return fmt.Sprintf("LN(%g,%g)", d.Mu, d.Sigma2) }

// PoissonProcess generates arrival instants with exponentially distributed
// inter-arrival times at the configured rate (events per second).
type PoissonProcess struct {
	Rate float64
}

// NextAfter returns the arrival instant following now, in seconds.
func (p PoissonProcess) NextAfter(now float64, s *Stream) float64 {
	return now + Exponential{Rate: p.Rate}.Sample(s)
}

// Arrivals returns the first n arrival instants of the process, in seconds.
func (p PoissonProcess) Arrivals(n int, s *Stream) []float64 {
	out := make([]float64, 0, n)
	t := 0.0
	for len(out) < n {
		t = p.NextAfter(t, s)
		out = append(out, t)
	}
	return out
}
