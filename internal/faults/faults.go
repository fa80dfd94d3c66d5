// Package faults generates deterministic, seeded fault-injection plans for
// the simulator: per-attempt task failures, straggler slowdowns, and
// resource outage windows. A Plan implements sim.FaultInjector.
//
// Determinism across managers is the design center. MRCP-RM and MinEDF-WC
// place the same task at different times and on different resources, so a
// fault plan keyed by absolute time or placement would give the two
// managers different fault sequences and bias the head-to-head comparison.
// Instead each attempt's fate is a pure function of (seed, task ID, attempt
// number): both managers see task j5-m3 succeed slowly on attempt 0 and
// fail at 40% on attempt 1, wherever and whenever they run it. Outages are
// absolute-time windows per resource, independent of the schedule, so they
// too are identical across managers.
package faults

import (
	"fmt"
	"hash/fnv"
	"math"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
)

// A failure strikes at a uniform fraction in [failPointLo, failPointHi] of
// the attempt's effective execution time; a straggler's execution time is
// multiplied by a uniform factor in [stragglerLo, stragglerHi]. The bounds
// are typed, so hi-lo is their float64 difference (0.8999999999999999 for
// the fail point), not the exact one an untyped expression folds to.
const (
	failPointLo, failPointHi float64 = 0.05, 0.95
	stragglerLo, stragglerHi float64 = 1.5, 3.0
)

// Config parameterizes a fault plan. The zero value injects nothing: a
// plan built from it leaves every simulation bit-identical to a fault-free
// run.
type Config struct {
	// TaskFailureProb is the per-attempt probability that a task attempt
	// fails before completing, in [0, 1).
	TaskFailureProb float64
	// StragglerProb is the per-attempt probability of a straggler slowdown,
	// in [0, 1).
	StragglerProb float64

	// MTBFMs is the mean operating time (ms) between outages of one
	// resource; 0 disables outages. MTTRMs is the mean repair time (ms).
	// Both are exponentially distributed.
	MTBFMs float64
	MTTRMs float64
	// OutageHorizonMs bounds outage generation: no outage begins at or
	// after this instant. Required when MTBFMs > 0.
	OutageHorizonMs int64
	// NumResources is the cluster size outages are generated for. Required
	// when MTBFMs > 0.
	NumResources int

	// Seed1, Seed2 seed the plan's RNG streams.
	Seed1, Seed2 uint64
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.TaskFailureProb > 0 || c.StragglerProb > 0 || c.MTBFMs > 0
}

// Validate checks parameter ranges.
func (c Config) Validate() error {
	if c.TaskFailureProb < 0 || c.TaskFailureProb >= 1 {
		return fmt.Errorf("faults: task failure probability %g outside [0,1)", c.TaskFailureProb)
	}
	if c.StragglerProb < 0 || c.StragglerProb >= 1 {
		return fmt.Errorf("faults: straggler probability %g outside [0,1)", c.StragglerProb)
	}
	if c.TaskFailureProb+c.StragglerProb >= 1 {
		return fmt.Errorf("faults: failure + straggler probability %g reaches 1",
			c.TaskFailureProb+c.StragglerProb)
	}
	if c.MTBFMs < 0 || c.MTTRMs < 0 {
		return fmt.Errorf("faults: negative MTBF/MTTR")
	}
	if c.MTBFMs > 0 {
		if c.MTTRMs <= 0 {
			return fmt.Errorf("faults: outages enabled (MTBF %g ms) but MTTR is %g ms", c.MTBFMs, c.MTTRMs)
		}
		if c.OutageHorizonMs <= 0 {
			return fmt.Errorf("faults: outages enabled but no outage horizon")
		}
		if c.NumResources <= 0 {
			return fmt.Errorf("faults: outages enabled but NumResources is %d", c.NumResources)
		}
	}
	return nil
}

// Plan is a realized fault-injection plan. It is stateless per query —
// Attempt builds a fresh RNG stream purely from the plan seeds and the
// (task, attempt) identity — so call order does not matter and the same
// plan can drive many simulations. (Stream.Derive is NOT used here: it
// advances the parent stream, which would make fates call-order-dependent
// and give each manager under test a different fault sequence.)
type Plan struct {
	cfg     Config
	outages []sim.Outage
}

// New builds a plan from the configuration, pre-generating the outage
// windows.
func New(c Config) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{cfg: c}
	if c.MTBFMs > 0 {
		p.outages = p.generateOutages()
	}
	return p, nil
}

// stream builds an independent RNG stream keyed by the plan seeds and two
// tag words, with splitmix64 finalizers separating nearby tags.
func (p *Plan) stream(tag1, tag2 uint64) *stats.Stream {
	a := stats.Mix64(p.cfg.Seed1 ^ stats.Mix64(tag1))
	b := stats.Mix64(p.cfg.Seed2 ^ stats.Mix64(tag2) ^ 0x9e3779b97f4a7c15)
	return stats.NewStream(a, b)
}

// Attempt implements sim.FaultInjector: the fate of one execution attempt,
// a pure function of the plan seed, the task ID, and the attempt number.
func (p *Plan) Attempt(taskID string, attempt int) sim.AttemptFault {
	var f sim.AttemptFault
	if p.cfg.TaskFailureProb == 0 && p.cfg.StragglerProb == 0 {
		return f
	}
	h := fnv.New64a()
	h.Write([]byte(taskID))
	s := p.stream(h.Sum64(), h.Sum64()+uint64(attempt)+1)
	u := s.Float64()
	switch {
	case u < p.cfg.TaskFailureProb:
		f.Fails = true
		f.FailPoint = failPointLo + (failPointHi-failPointLo)*s.Float64()
	case u < p.cfg.TaskFailureProb+p.cfg.StragglerProb:
		f.Factor = stragglerLo + (stragglerHi-stragglerLo)*s.Float64()
	}
	return f
}

// PlannedOutages implements sim.FaultInjector.
func (p *Plan) PlannedOutages() []sim.Outage {
	return append([]sim.Outage(nil), p.outages...)
}

// generateOutages renews an alternating up/down process per resource:
// exponential operating intervals (mean MTBF) separate exponential repair
// intervals (mean MTTR), truncated at the horizon.
func (p *Plan) generateOutages() []sim.Outage {
	var out []sim.Outage
	for r := 0; r < p.cfg.NumResources; r++ {
		s := p.stream(0x6f757461676573, uint64(r)+1) // "outages"
		now := int64(0)
		for {
			up := durationMS(p.cfg.MTBFMs, s)
			downAt := now + up
			if downAt >= p.cfg.OutageHorizonMs {
				break
			}
			repair := durationMS(p.cfg.MTTRMs, s)
			out = append(out, sim.Outage{Resource: r, DownAt: downAt, UpAt: downAt + repair})
			now = downAt + repair
		}
	}
	return out
}

// durationMS samples an exponential duration with the given mean, floored
// at 1 ms.
func durationMS(meanMS float64, s *stats.Stream) int64 {
	d := int64(math.Ceil(meanMS * s.ExpFloat64()))
	if d < 1 {
		d = 1
	}
	return d
}
