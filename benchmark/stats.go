package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported (choosing-metrics guide, section 1).
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of vs. ok is false when
// fewer than minBeyond samples lie beyond it, in which case the figure is
// not to be reported: p50 needs 20 samples, p90 100, p99 1000.
func percentile(vs []float64, q float64) (v float64, ok bool) {
	n := len(vs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// tail returns the highest of p99 and p90 that has minBeyond samples beyond
// it, falling back to the median when the sample is too small for either,
// plus the label of the percentile it chose.
func tail(vs []float64) (float64, string) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.99, "p99"}, {0.90, "p90"}} {
		if v, ok := percentile(vs, c.q); ok {
			return v, c.label
		}
	}
	return median(vs), "p50"
}

// medianOf applies f to every element and returns the median of the results.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// fingerprint hashes int64 values (FNV-1a over their little-endian bytes,
// as sim.Metrics.Fingerprint does), for outputs that have no fingerprint of
// their own: batch schedules.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) add(vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		f.h.Write(buf[:])
	}
}

func (f fingerprint) sum() uint64 { return f.h.Sum64() }
