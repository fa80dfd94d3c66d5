package obs

import (
	"math"
	"sync"
)

// Streaming histograms share one fixed log-scale bucket scheme so snapshots
// from different runs (or different shards) are always comparable. Bucket i
// covers (bounds[i-1], bounds[i]] with bounds[k] = 2^(k/2): half-power-of-two
// resolution from 1 ms up to ~2^31 ms (~25 days), plus an overflow bucket.
// A quantile estimate is therefore never off by more than one bucket width
// (a factor of sqrt(2) ≈ 1.41 of the true value).
//
// Histograms follow the package's two core rules: a nil *Histogram is inert
// (every method returns immediately), and histograms fed simulated-time
// quantities are deterministic run to run. Wall-clock-derived histograms are
// registered under names with the "wall_" prefix so determinism-aware
// consumers can strip them, exactly like wall_ event fields.

// numHistBounds finite bucket upper bounds; one more bucket holds overflow.
const numHistBounds = 63

// numHistBuckets is the total bucket count including the overflow bucket.
const numHistBuckets = numHistBounds + 1

var histBounds = makeHistBounds()

func makeHistBounds() [numHistBounds]float64 {
	var b [numHistBounds]float64
	for i := range b {
		b[i] = math.Pow(2, float64(i)/2)
	}
	return b
}

// histBucket returns the bucket index for a value: the first bucket whose
// upper bound is >= v, or the overflow bucket. Negative values clamp into
// bucket 0 alongside zero.
func histBucket(v float64) int {
	if v <= histBounds[0] {
		return 0
	}
	if v > histBounds[numHistBounds-1] {
		return numHistBounds // overflow
	}
	lo, hi := 1, numHistBounds-1
	for lo < hi {
		mid := (lo + hi) / 2
		if histBounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Histogram is a mutex-guarded streaming histogram over the shared
// log-scale buckets. The zero value is ready to use; a nil *Histogram is
// inert. Observe and Snapshot are safe to call concurrently.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [numHistBuckets]int64
}

// Observe records one value. Safe on a nil receiver and under concurrency.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[histBucket(v)]++
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the histogram state. Safe on a nil
// receiver (it returns a zero snapshot) and under concurrent Observe calls.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Buckets: make([]int64, numHistBuckets)}
	copy(s.Buckets, h.buckets[:])
	return s
}

// HistSnapshot is a point-in-time copy of one histogram: per-bucket counts
// over the shared bounds plus count/sum/min/max.
type HistSnapshot struct {
	Name    string
	Count   int64
	Sum     float64
	Min     float64
	Max     float64
	Buckets []int64 // len numHistBuckets; Buckets[last] is overflow
}

// Quantile estimates the q-quantile (0..1) by nearest rank over the bucket
// counts with linear interpolation inside the bucket. The estimate is exact
// to within one bucket width; the overflow bucket reports the observed max.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if rank > cum+c {
			cum += c
			continue
		}
		if i >= numHistBounds {
			return s.Max // overflow bucket: best available point estimate
		}
		lo := 0.0
		if i > 0 {
			lo = histBounds[i-1]
		} else if s.Min < 0 {
			// Bucket 0 is the catch-all for everything <= bounds[0],
			// including negative values (lateness of early jobs); anchor
			// it at the observed minimum instead of zero.
			lo = s.Min
		}
		hi := histBounds[i]
		// Clamp the bucket to the observed range so single-bucket
		// histograms report tight estimates.
		if s.Min > lo && s.Min <= hi {
			lo = s.Min
		}
		if s.Max < hi && s.Max >= lo {
			hi = s.Max
		}
		frac := float64(rank-cum) / float64(c)
		return lo + frac*(hi-lo)
	}
	return s.Max
}

// Mean returns the arithmetic mean of the observed values (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
