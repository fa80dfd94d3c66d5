package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"mrcprm/internal/fifo"
	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// BenchmarkDrainFIFO drains one shard's share of the benchmark's
// intake-fifo stream (Table 3 jobs sized for 25 resources, fifo policy, CP
// bypassed) the way a daemon's engine does: with the registry-only
// telemetry handle attached, so the 5-second sampler is on. The same
// arrival process at N and 4N jobs keeps the standing load equal, so
// ns/step and allocs/step should not move between the two sizes: a step
// costs what its event touches, not what the run has registered so far.
func BenchmarkDrainFIFO(b *testing.B) {
	gen := workload.DefaultSynthetic()
	gen.NumResources = 25
	cluster := sim.Cluster{NumResources: gen.NumResources,
		MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource}
	for _, n := range []int{150, 600} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			var steps, mallocs uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				jobs, err := gen.Generate(n, stats.NewStream(1, 0xd2a1))
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(cluster, fifo.New(cluster), jobs)
				if err != nil {
					b.Fatal(err)
				}
				s.SetTelemetry(obs.New(obs.DiscardSink{}), 0)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				for more := true; more; steps++ {
					if more, err = s.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				if m, err := s.Finish(); err != nil || m.JobsCompleted != n {
					b.Fatalf("drain left the run unfinished: %v", err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(mallocs)/float64(steps), "allocs/step")
		})
	}
}
