package workload

import (
	"fmt"

	"mrcprm/internal/stats"
)

// SyntheticConfig parameterizes the Table 3 workload. Time-valued fields
// are in the paper's units (seconds) and converted to milliseconds during
// generation. The zero value is not useful; start from DefaultSynthetic.
type SyntheticConfig struct {
	// NumMapLo/Hi bound k_j^mp ~ DU[lo, hi].
	NumMapLo, NumMapHi int64
	// NumReduceLo/Hi bound k_j^rd ~ DU[lo, hi].
	NumReduceLo, NumReduceHi int64
	// EmaxSec is the upper bound of the map task execution time
	// me ~ DU[1, emax] (seconds). Paper values: {10, 50, 100}, default 50.
	EmaxSec int64
	// ReduceNoiseLo/HiSec bound the additive DU term of the reduce task
	// execution time re = 3*Σme/k_rd + DU[1,10] (seconds).
	ReduceNoiseLoSec, ReduceNoiseHiSec int64
	// P is the Bernoulli probability that a job's earliest start time lies
	// after its arrival. Paper values: {0.1, 0.5, 0.9}, default 0.5.
	P float64
	// SmaxSec is the upper bound of the DU offset added to the arrival
	// time when P fires (seconds). Paper: {10000, 50000, 250000}, default 50000.
	SmaxSec int64
	// DeadlineUL is d_UL, the upper bound of the deadline multiplier
	// U[1, d_UL]. Paper values: {2, 5, 10}, default 5.
	DeadlineUL float64
	// Lambda is the Poisson job arrival rate in jobs/second.
	// Paper values: {0.001, 0.01, 0.015, 0.02}, default 0.01.
	Lambda float64
	// NumResources (m), MapSlotsPerResource (c^mp) and
	// ReduceSlotsPerResource (c^rd) describe the cluster used both for TE
	// computation and for the simulated system. Paper m: {25, 50, 100},
	// default 50, with 2 map and 2 reduce slots per resource (the Section
	// V.D example configuration).
	NumResources           int
	MapSlotsPerResource    int64
	ReduceSlotsPerResource int64
	// TaskMemLo/Hi bound an optional per-task memory demand ~ DU[lo, hi]
	// (arbitrary units, matched against Cluster.MemCapacity). TaskMemHi = 0
	// (the default) disables the draws entirely, leaving the generator's
	// random stream — and therefore every historical workload — unchanged.
	TaskMemLo, TaskMemHi int64
}

// DefaultSynthetic returns Table 3 with every factor at its default value.
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{
		NumMapLo: 1, NumMapHi: 100,
		NumReduceLo: 1, NumReduceHi: 100,
		EmaxSec:          50,
		ReduceNoiseLoSec: 1, ReduceNoiseHiSec: 10,
		P:                      0.5,
		SmaxSec:                50000,
		DeadlineUL:             5,
		Lambda:                 0.01,
		NumResources:           50,
		MapSlotsPerResource:    2,
		ReduceSlotsPerResource: 2,
	}
}

// TotalMapSlots returns m * c^mp.
func (c SyntheticConfig) TotalMapSlots() int64 {
	return int64(c.NumResources) * c.MapSlotsPerResource
}

// TotalReduceSlots returns m * c^rd.
func (c SyntheticConfig) TotalReduceSlots() int64 {
	return int64(c.NumResources) * c.ReduceSlotsPerResource
}

// Validate checks the configuration for inconsistencies.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.NumMapLo < 1 || c.NumMapHi < c.NumMapLo:
		return fmt.Errorf("workload: bad map task count range [%d,%d]", c.NumMapLo, c.NumMapHi)
	case c.NumReduceLo < 0 || c.NumReduceHi < c.NumReduceLo:
		return fmt.Errorf("workload: bad reduce task count range [%d,%d]", c.NumReduceLo, c.NumReduceHi)
	case c.EmaxSec < 1:
		return fmt.Errorf("workload: emax %d must be at least 1s", c.EmaxSec)
	case c.P < 0 || c.P > 1:
		return fmt.Errorf("workload: p %g out of [0,1]", c.P)
	case c.P > 0 && c.SmaxSec < 1:
		return fmt.Errorf("workload: smax %d must be at least 1s when p > 0", c.SmaxSec)
	case c.DeadlineUL < 1:
		return fmt.Errorf("workload: deadline multiplier upper bound %g must be >= 1", c.DeadlineUL)
	case c.Lambda <= 0:
		return fmt.Errorf("workload: arrival rate %g must be positive", c.Lambda)
	case c.NumResources < 1 || c.MapSlotsPerResource < 1 || c.ReduceSlotsPerResource < 1:
		return fmt.Errorf("workload: bad cluster shape m=%d c_mp=%d c_rd=%d",
			c.NumResources, c.MapSlotsPerResource, c.ReduceSlotsPerResource)
	case c.TaskMemHi > 0 && (c.TaskMemLo < 1 || c.TaskMemHi < c.TaskMemLo):
		return fmt.Errorf("workload: bad task memory range [%d,%d]", c.TaskMemLo, c.TaskMemHi)
	case c.TaskMemHi == 0 && c.TaskMemLo != 0:
		return fmt.Errorf("workload: task memory lower bound %d without an upper bound", c.TaskMemLo)
	}
	return nil
}

// Generate produces n jobs with Poisson arrivals per Table 3. Job IDs are
// assigned in arrival order starting from 0.
func (c SyntheticConfig) Generate(n int, rng *stats.Stream) ([]*Job, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	arrivalRng := rng.Derive(1)
	shapeRng := rng.Derive(2)
	slaRng := rng.Derive(3)

	// Memory demands draw from their own derived stream, and only when the
	// knob is on — streams 1..3 see exactly the historical draw sequence
	// either way, so mem-off generation is bit-identical to older versions.
	var memRng *stats.Stream
	if c.TaskMemHi > 0 {
		memRng = rng.Derive(4)
	}

	arrivals := stats.PoissonProcess{Rate: c.Lambda}.Arrivals(n, arrivalRng)
	jobs := make([]*Job, n)
	for i := range jobs {
		j := c.generateJob(i, shapeRng)
		if memRng != nil {
			memDist := stats.DiscreteUniform{Lo: c.TaskMemLo, Hi: c.TaskMemHi}
			for _, t := range j.Tasks() {
				t.Mem = memDist.SampleInt(memRng)
			}
		}
		assignSLA(j, int64(arrivals[i]*1000), c.P, c.SmaxSec*1000, c.DeadlineUL,
			c.TotalMapSlots(), c.TotalReduceSlots(), slaRng)
		if err := j.Validate(); err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// generateJob draws the task structure of one job: k_mp map tasks with
// me ~ DU[1, emax] seconds each, and k_rd reduce tasks with
// re = 3*Σme/k_rd + DU[1,10] seconds each.
func (c SyntheticConfig) generateJob(id int, rng *stats.Stream) *Job {
	j := &Job{ID: id}
	km := (stats.DiscreteUniform{Lo: c.NumMapLo, Hi: c.NumMapHi}).SampleInt(rng)
	kr := (stats.DiscreteUniform{Lo: c.NumReduceLo, Hi: c.NumReduceHi}).SampleInt(rng)
	meDist := stats.DiscreteUniform{Lo: 1, Hi: c.EmaxSec}
	j.newTasks(int(km), int(kr))
	var totalMapSec int64
	for _, t := range j.MapTasks {
		sec := meDist.SampleInt(rng)
		totalMapSec += sec
		t.Exec = sec * 1000
	}
	if kr > 0 {
		baseMS := 3 * totalMapSec * 1000 / kr
		noise := stats.DiscreteUniform{Lo: c.ReduceNoiseLoSec, Hi: c.ReduceNoiseHiSec}
		for _, t := range j.ReduceTasks {
			t.Exec = baseMS + noise.SampleInt(rng)*1000
		}
	}
	return j
}
