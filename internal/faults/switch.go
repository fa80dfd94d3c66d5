package faults

import (
	"sync/atomic"

	"mrcprm/internal/sim"
)

// Switch is a runtime-swappable fault injector for long-running services:
// it implements sim.FaultInjector by delegating to whatever plan is
// currently installed, and Set may be called concurrently with a simulation
// consulting Attempt (the service's POST /v1/admin/faults endpoint swaps
// plans while the engine is stepping).
//
// Only per-attempt fates (failures, stragglers) are swappable: the
// simulator reads PlannedOutages once at run start, so outage windows must
// go through sim.Simulator.InjectOutage instead, and a Switch plans none.
type Switch struct {
	current atomic.Pointer[injectorBox]
}

// injectorBox wraps the interface value so atomic.Pointer can hold it.
type injectorBox struct{ fi sim.FaultInjector }

// NewSwitch returns a Switch that injects nothing until Set installs a
// plan.
func NewSwitch() *Switch {
	s := &Switch{}
	s.current.Store(&injectorBox{})
	return s
}

// Set atomically replaces the active plan; a nil plan disables per-attempt
// faults. Attempts already under way are unaffected.
func (s *Switch) Set(fi sim.FaultInjector) {
	s.current.Store(&injectorBox{fi: fi})
}

// Attempt implements sim.FaultInjector via the currently installed plan.
func (s *Switch) Attempt(taskID string, attempt int) sim.AttemptFault {
	if fi := s.current.Load().fi; fi != nil {
		return fi.Attempt(taskID, attempt)
	}
	return sim.AttemptFault{}
}

// PlannedOutages implements sim.FaultInjector: a Switch plans no outage.
func (s *Switch) PlannedOutages() []sim.Outage { return nil }
