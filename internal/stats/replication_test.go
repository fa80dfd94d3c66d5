package stats

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// repBody returns a deterministic per-replication metric: a decaying noise
// around 100 so adaptive policies stop after a data-dependent rep count.
func repBody(rep int) float64 {
	return 100 + float64((rep*7919)%13)/float64(rep+1)
}

// sequential is the reference the runner must match at every worker count:
// one replication after another until the policy is done.
func sequential(p ReplicationPolicy, body func(rep int) float64) []float64 {
	var primary []float64
	for rep := 0; ; rep++ {
		primary = append(primary, body(rep))
		if p.Done(primary) {
			return primary
		}
	}
}

func TestRunParallelMatchesRun(t *testing.T) {
	policies := []ReplicationPolicy{
		{MinReps: 3, MaxReps: 40, Level: 0.95, RelTol: 0.02},  // adaptive stop
		{MinReps: 2, MaxReps: 7, Level: 0.95, RelTol: 1e-12},  // cap-bound
		{MinReps: 5, MaxReps: 5, Level: 0.95, RelTol: 0.05},   // fixed count
		{MinReps: 2, MaxReps: 100, Level: 0.95, RelTol: 0.25}, // stops early
	}
	for pi, p := range policies {
		want := sequential(p, repBody)
		for _, workers := range []int{0, 1, 2, 3, 8, 64} {
			got := p.Run(workers, repBody)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("policy %d workers=%d: got %v, want %v", pi, workers, got, want)
			}
		}
	}
}

func TestRunParallelBoundsConcurrency(t *testing.T) {
	p := ReplicationPolicy{MinReps: 4, MaxReps: 20, Level: 0.95, RelTol: 1e-12}
	const workers = 3
	var cur, peak atomic.Int64
	p.Run(workers, func(rep int) float64 {
		n := cur.Add(1)
		for {
			pk := peak.Load()
			if n <= pk || peak.CompareAndSwap(pk, n) {
				break
			}
		}
		defer cur.Add(-1)
		return repBody(rep)
	})
	if pk := peak.Load(); pk > workers {
		t.Fatalf("observed %d concurrent replications, want <= %d", pk, workers)
	}
}

func TestRunParallelFallsBackWithoutCap(t *testing.T) {
	// MaxReps 0 means Done fires after the first replication.
	p := ReplicationPolicy{MinReps: 0, MaxReps: 0}
	want := sequential(p, repBody)
	if len(want) != 1 {
		t.Fatalf("reference ran %d replications, want 1", len(want))
	}
	for _, workers := range []int{1, 4} {
		if got := p.Run(workers, repBody); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
		}
	}
}
