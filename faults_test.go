package mrcprm_test

import (
	"testing"

	"mrcprm"
)

// Fault-injection integration tests: the properties ISSUE-level robustness
// work must hold end to end, exercised through the public API exactly as a
// user would.

func faultTestWorkload(t *testing.T) ([]*mrcprm.Job, mrcprm.Cluster) {
	t.Helper()
	wl := mrcprm.DefaultSyntheticWorkload()
	wl.NumResources = 10
	wl.NumMapHi = 8
	wl.NumReduceHi = 4
	wl.Lambda = 0.02
	jobs, err := wl.Generate(40, mrcprm.NewStream(11, 0xfeed))
	if err != nil {
		t.Fatal(err)
	}
	cluster := mrcprm.Cluster{NumResources: wl.NumResources,
		MapSlots: wl.MapSlotsPerResource, ReduceSlots: wl.ReduceSlotsPerResource}
	return jobs, cluster
}

func managers(t *testing.T, cluster mrcprm.Cluster) map[string]func() mrcprm.ResourceManager {
	return map[string]func() mrcprm.ResourceManager{
		"mrcp":   func() mrcprm.ResourceManager { return mrcprm.NewManager(cluster, mrcprm.DefaultConfig()) },
		"minedf": func() mrcprm.ResourceManager { return mrcprm.NewMinEDF(cluster) },
		"fifo":   func() mrcprm.ResourceManager { return newRegisteredPolicy(t, "fifo", cluster, mrcprm.PolicyOptions{}) },
	}
}

// A zero-rate fault plan must leave every manager's run bit-identical to a
// run with no injector installed at all.
func TestZeroRateFaultsBitIdentical(t *testing.T) {
	jobs, cluster := faultTestWorkload(t)
	for name, mk := range managers(t, cluster) {
		plain, err := mrcprm.Simulate(cluster, mk(), jobs)
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		plan, err := mrcprm.NewFaultPlan(mrcprm.FaultConfig{Seed1: 1, Seed2: 2})
		if err != nil {
			t.Fatal(err)
		}
		injected, err := mrcprm.SimulateInstrumented(cluster, mk(), jobs, plan, nil, nil)
		if err != nil {
			t.Fatalf("%s zero-rate: %v", name, err)
		}
		if plain.Fingerprint() != injected.Fingerprint() {
			t.Errorf("%s: zero-rate injector changed behavior: %x vs %x",
				name, plain.Fingerprint(), injected.Fingerprint())
		}
	}
}

// Same seed, same plan, same manager: byte-identical metrics. And because
// attempt fates are a pure function of (seed, task, attempt), the managers
// must all see the same number of injected failures even though they
// schedule the attempts at different times and places.
func TestFaultDeterminism(t *testing.T) {
	jobs, cluster := faultTestWorkload(t)
	cfg := mrcprm.FaultConfig{
		TaskFailureProb: 0.08,
		StragglerProb:   0.05,
		Seed1:           99, Seed2: 7,
	}
	failedBy := map[string]int{}
	for name, mk := range managers(t, cluster) {
		var prints []uint64
		var failed int
		for rep := 0; rep < 2; rep++ {
			plan, err := mrcprm.NewFaultPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mrcprm.SimulateInstrumented(cluster, mk(), jobs, plan, nil, nil)
			if err != nil {
				t.Fatalf("%s rep %d: %v", name, rep, err)
			}
			prints = append(prints, m.Fingerprint())
			failed = m.TasksFailed
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: non-deterministic under faults: %x vs %x", name, prints[0], prints[1])
		}
		failedBy[name] = failed
	}
	if failedBy["mrcp"] != failedBy["minedf"] || failedBy["mrcp"] != failedBy["fifo"] {
		t.Errorf("failure counts depend on the manager (plan is not schedule-independent): %v", failedBy)
	}
}

// Under combined task failures, stragglers, and resource outages, every
// manager must drive the run to completion: each arrived job either
// completes or is explicitly abandoned, and nothing errors out.
func TestRecoveryUnderCombinedFaults(t *testing.T) {
	jobs, cluster := faultTestWorkload(t)
	var horizon int64
	for _, j := range jobs {
		if j.Deadline > horizon {
			horizon = j.Deadline
		}
	}
	cfg := mrcprm.FaultConfig{
		TaskFailureProb: 0.10,
		StragglerProb:   0.05,
		MTBFMs:          float64(horizon) / 3,
		MTTRMs:          30_000,
		OutageHorizonMs: 2 * horizon,
		NumResources:    cluster.NumResources,
		Seed1:           5, Seed2: 6,
	}
	for name, mk := range managers(t, cluster) {
		plan, err := mrcprm.NewFaultPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mrcprm.SimulateInstrumented(cluster, mk(), jobs, plan, nil, nil)
		if err != nil {
			t.Fatalf("%s: run failed under faults: %v", name, err)
		}
		if m.JobsArrived != m.JobsCompleted+m.JobsAbandoned {
			t.Errorf("%s: %d arrived but %d completed + %d abandoned",
				name, m.JobsArrived, m.JobsCompleted, m.JobsAbandoned)
		}
		if m.TasksFailed == 0 && m.Outages == 0 {
			t.Errorf("%s: injector was configured but nothing was injected", name)
		}
	}
}

// alwaysFail dooms every attempt, so retry caps must kick in and abandon
// every job instead of retrying forever.
type alwaysFail struct{}

func (alwaysFail) Attempt(string, int) mrcprm.AttemptFault {
	return mrcprm.AttemptFault{Fails: true, FailPoint: 0.5}
}
func (alwaysFail) PlannedOutages() []mrcprm.Outage { return nil }

func TestRetryCapsAbandonDoomedJobs(t *testing.T) {
	jobs, cluster := faultTestWorkload(t)
	for name, mk := range managers(t, cluster) {
		m, err := mrcprm.SimulateInstrumented(cluster, mk(), jobs, alwaysFail{}, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.JobsAbandoned != m.JobsArrived {
			t.Errorf("%s: %d of %d doomed jobs abandoned", name, m.JobsAbandoned, m.JobsArrived)
		}
		if m.JobsCompleted != 0 {
			t.Errorf("%s: %d jobs completed although every attempt fails", name, m.JobsCompleted)
		}
	}
}
