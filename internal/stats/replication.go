package stats

import "math"

// ReplicationPolicy implements the paper's stopping rule for simulation
// replications (Section VI.A): repeat each experiment until the 95%
// confidence interval of the primary metric is within a relative tolerance
// of its mean, bounded by a minimum and maximum number of replications.
type ReplicationPolicy struct {
	// MinReps is the minimum number of replications to run before the
	// stopping rule is evaluated. Must be at least 2 for a CI to exist.
	MinReps int
	// MaxReps caps the number of replications regardless of CI width.
	MaxReps int
	// Level is the confidence level, e.g. 0.95.
	Level float64
	// RelTol is the target relative half-width, e.g. 0.01 for ±1%.
	RelTol float64
}

// Done reports whether the sample collected so far satisfies the policy.
func (p ReplicationPolicy) Done(primary []float64) bool {
	n := len(primary)
	if n >= p.MaxReps {
		return true
	}
	if n < p.MinReps || n < 2 {
		return false
	}
	s := Summarize(primary)
	rel := s.RelCI(p.Level)
	return !math.IsInf(rel, 1) && rel <= p.RelTol
}

// Run drives replications of a simulation with up to workers of them in
// flight at once; workers <= 1 runs them one after another. The body
// callback receives the replication index and returns the primary metric
// value for that run; bodies must be independent per replication (each
// seeds its own stream from the index). The stopping rule is evaluated on
// ordered prefixes only — replication r counts toward stopping only once
// replications 0..r-1 have all finished — and speculative replications past
// the stopping point are discarded, so the returned sample is the same for
// every workers value. A policy with MaxReps <= 0 runs one replication.
func (p ReplicationPolicy) Run(workers int, body func(rep int) float64) []float64 {
	workers = max(workers, 1)
	// Done holds at MaxReps replications, or at the first when MaxReps <= 0.
	limit := max(p.MaxReps, 1)
	results := make([]float64, limit)
	done := make([]bool, limit)
	type reply struct {
		rep int
		val float64
	}
	ch := make(chan reply)
	next := 0     // next replication index to launch
	inflight := 0 // launched but not yet received
	launch := func() {
		rep := next
		next++
		inflight++
		go func() { ch <- reply{rep, body(rep)} }()
	}
	for inflight < workers && next < limit {
		launch()
	}
	ready := 0 // length of the finished prefix
	var primary []float64
	for inflight > 0 {
		r := <-ch
		inflight--
		results[r.rep], done[r.rep] = r.val, true
		stopped := false
		for ready < limit && done[ready] {
			primary = append(primary, results[ready])
			ready++
			if p.Done(primary) {
				stopped = true
				break
			}
		}
		if stopped {
			// Drain in-flight speculative replications and discard them.
			for inflight > 0 {
				<-ch
				inflight--
			}
			return primary
		}
		if next < limit {
			launch()
		}
	}
	return primary
}
