// Package stats provides the stochastic substrate used by the workload
// generators, the simulator, and the experiment harness: seeded random
// number streams, the probability distributions named in Table 3 and
// Section VI.B.1 of the paper, sample statistics, and Student-t confidence
// intervals for the replication stopping rule.
//
// Everything in this package is deterministic given a seed, which makes
// every simulation run in the repository reproducible.
package stats

import "math/rand/v2"

// Stream is a deterministic pseudo-random number stream. It wraps the
// standard library's PCG generator so that independent model components
// (arrivals, task counts, execution times, ...) can draw from independent
// streams derived from a single experiment seed.
type Stream struct {
	rng *rand.Rand
}

// NewStream returns a stream seeded with the two words of seed material.
func NewStream(seed1, seed2 uint64) *Stream {
	return &Stream{rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Derive returns a new independent stream deterministically derived from
// this one and the given tag. Streams derived with distinct tags are
// statistically independent for practical purposes.
func (s *Stream) Derive(tag uint64) *Stream {
	// splitmix64 finalizer over (draw, tag) gives well-separated seeds.
	a := mix(s.rng.Uint64() ^ tag)
	b := mix(a ^ 0x9e3779b97f4a7c15)
	return NewStream(a, b)
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.rng.IntN(n) }

// Int64N returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Stream) Int64N(n int64) int64 { return s.rng.Int64N(n) }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rng.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Stream) ExpFloat64() float64 { return s.rng.ExpFloat64() }

// Shuffle randomizes the order of n elements using the provided swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }
