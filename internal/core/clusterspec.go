package core

import (
	"fmt"

	"mrcprm/internal/sim"
)

// ClusterSpec is the declarative description of a (possibly heterogeneous)
// cluster: one ResourceSpec per machine plus the per-resource slot counts
// shared by all of them. It is the configuration-facing builder for
// sim.Cluster — command-line flags and service configs construct a spec,
// validate it once, and hand the resulting Cluster to everything else.
type ClusterSpec struct {
	// Resources lists the machines. Order is the resource index order.
	Resources []ResourceSpec
	// MapSlots and ReduceSlots are the per-resource slot capacities (c^mp
	// and c^rd), identical across machines as in the paper.
	MapSlots    int64
	ReduceSlots int64
	// MemCapacity is the optional per-resource memory capacity; 0 disables
	// the memory dimension.
	MemCapacity int64
}

// ResourceSpec describes one machine of a ClusterSpec.
type ResourceSpec struct {
	// SpeedFactor is the machine's relative speed; 1.0 is the reference.
	// A task with nominal execution time e runs for sim.ScaledExec(e,
	// SpeedFactor) milliseconds here. Must be > 0.
	SpeedFactor float64
}

// Cluster materializes the spec as a sim.Cluster, normalizing an all-1.0
// speed profile to the nil (uniform) representation so that a spec of
// identical machines is indistinguishable — bit for bit — from a cluster
// that never heard of heterogeneity.
func (s ClusterSpec) Cluster() (sim.Cluster, error) {
	if len(s.Resources) == 0 {
		return sim.Cluster{}, fmt.Errorf("core: cluster spec has no resources")
	}
	c := sim.Cluster{
		NumResources: len(s.Resources),
		MapSlots:     s.MapSlots,
		ReduceSlots:  s.ReduceSlots,
		MemCapacity:  s.MemCapacity,
	}
	uniform := true
	speeds := make([]float64, len(s.Resources))
	for i, r := range s.Resources {
		if !(r.SpeedFactor > 0) {
			return sim.Cluster{}, fmt.Errorf("core: resource %d has invalid speed factor %v", i, r.SpeedFactor)
		}
		speeds[i] = r.SpeedFactor
		if r.SpeedFactor != 1.0 {
			uniform = false
		}
	}
	if !uniform {
		c.Speed = speeds
	}
	if err := c.Validate(); err != nil {
		return sim.Cluster{}, err
	}
	return c, nil
}

// TwoClassSpec builds the canonical heterogeneity experiment cluster: m
// resources where the first half run at speed 1.0 and the second half at
// 1/spread (spread >= 1; 1.0 yields a uniform cluster). Slot counts follow
// the paper's per-resource shape.
func TwoClassSpec(m int, mapSlots, reduceSlots int64, spread float64) ClusterSpec {
	s := ClusterSpec{
		Resources:   make([]ResourceSpec, m),
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	}
	for i := range s.Resources {
		speed := 1.0
		if spread > 1 && i >= m/2 {
			speed = 1 / spread
		}
		s.Resources[i] = ResourceSpec{SpeedFactor: speed}
	}
	return s
}
