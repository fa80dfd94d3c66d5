package mrcprm_test

import (
	"testing"

	"mrcprm"
)

// Pinned end-to-end fingerprints guarding the rmkit job-lifecycle kernel:
// every manager must produce byte-identical simulated-time metrics on the
// same workloads, fault-free and under a fault plan, across refactors.
// (The kernel extraction itself was verified byte-identical against the
// pre-refactor managers under the experiment configuration.)
//
// MRCP-RM runs without a solve time limit, so the search is bounded by the
// deterministic node budget alone and the pins hold on slow machines and
// under -race.
//
// If one of these fails after an intentional behavior change, regenerate
// the constants with:
//
//	go test -run TestPinnedFingerprints -v
func mrcpDeterministic(cluster mrcprm.Cluster) mrcprm.ResourceManager {
	cfg := mrcprm.DefaultConfig()
	cfg.SolveTimeLimit = 0
	return mrcprm.NewManager(cluster, cfg)
}

// listPolicy builds a list policy ("fifo", "edf") through the registry
// (the facade has no constructor of its own for either).
func listPolicy(t *testing.T, name string) func(mrcprm.Cluster) mrcprm.ResourceManager {
	return func(cluster mrcprm.Cluster) mrcprm.ResourceManager {
		return newRegisteredPolicy(t, name, cluster, mrcprm.PolicyOptions{})
	}
}

func tightWorkload(t *testing.T) ([]*mrcprm.Job, mrcprm.Cluster) {
	t.Helper()
	wl := mrcprm.DefaultSyntheticWorkload()
	wl.NumResources = 6
	wl.NumMapHi = 8
	wl.NumReduceHi = 4
	wl.Lambda = 0.05
	wl.DeadlineUL = 2
	jobs, err := wl.Generate(30, mrcprm.NewStream(7, 0xfeed))
	if err != nil {
		t.Fatal(err)
	}
	cluster := mrcprm.Cluster{NumResources: wl.NumResources,
		MapSlots: wl.MapSlotsPerResource, ReduceSlots: wl.ReduceSlotsPerResource}
	return jobs, cluster
}

func TestPinnedFingerprints(t *testing.T) {
	faultJobs, faultCluster := faultTestWorkload(t)
	tightJobs, tightCluster := tightWorkload(t)
	plan, err := mrcprm.NewFaultPlan(mrcprm.FaultConfig{
		TaskFailureProb: 0.08,
		StragglerProb:   0.05,
		MTBFMs:          300_000,
		MTTRMs:          60_000,
		OutageHorizonMs: 4_000_000,
		NumResources:    faultCluster.NumResources,
		Seed1:           99, Seed2: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		jobs      []*mrcprm.Job
		cluster   mrcprm.Cluster
		rm        func(mrcprm.Cluster) mrcprm.ResourceManager
		plan      mrcprm.FaultInjector
		want      uint64
		late      int
		abandoned int
	}{
		{name: "mrcp/plain", jobs: faultJobs, cluster: faultCluster,
			rm: mrcpDeterministic, want: 0xa410f5320964f0b8},
		{name: "minedf/plain", jobs: faultJobs, cluster: faultCluster,
			rm: mrcprm.NewMinEDF, want: 0xf8b83b796890cdae},
		{name: "fifo/plain", jobs: faultJobs, cluster: faultCluster,
			rm: listPolicy(t, "fifo"), want: 0xf8b83b796890cdae},
		{name: "edf/plain", jobs: faultJobs, cluster: faultCluster,
			rm: listPolicy(t, "edf"), want: 0xf8b83b796890cdae},

		{name: "mrcp/faults", jobs: faultJobs, cluster: faultCluster,
			rm: mrcpDeterministic, plan: plan, want: 0xcad3f7de46a6f7b9, late: 7, abandoned: 5},
		{name: "minedf/faults", jobs: faultJobs, cluster: faultCluster,
			rm: mrcprm.NewMinEDF, plan: plan, want: 0x97a978ad6aa83b05, late: 7, abandoned: 6},
		{name: "fifo/faults", jobs: faultJobs, cluster: faultCluster,
			rm: listPolicy(t, "fifo"), plan: plan, want: 0xda5c03474a540bae, late: 7, abandoned: 5},
		{name: "edf/faults", jobs: faultJobs, cluster: faultCluster,
			rm: listPolicy(t, "edf"), plan: plan, want: 0x022a135fb9accbe9, late: 7, abandoned: 5},

		{name: "mrcp/tight", jobs: tightJobs, cluster: tightCluster,
			rm: mrcpDeterministic, want: 0x1ff7e76c274e0a72, late: 2},
		{name: "minedf/tight", jobs: tightJobs, cluster: tightCluster,
			rm: mrcprm.NewMinEDF, want: 0xe7197aadc0e68d9d, late: 4},
		{name: "fifo/tight", jobs: tightJobs, cluster: tightCluster,
			rm: listPolicy(t, "fifo"), want: 0xf6d0876f8020f1ba, late: 2},
		{name: "edf/tight", jobs: tightJobs, cluster: tightCluster,
			rm: listPolicy(t, "edf"), want: 0xfb560e0c35b7e2f0, late: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := mrcprm.SimulateInstrumented(tc.cluster, tc.rm(tc.cluster), tc.jobs, tc.plan, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Fingerprint(); got != tc.want {
				t.Errorf("fingerprint %#x, want %#x", got, tc.want)
			}
			if m.LateJobs != tc.late {
				t.Errorf("late jobs %d, want %d", m.LateJobs, tc.late)
			}
			if m.JobsAbandoned != tc.abandoned {
				t.Errorf("abandoned jobs %d, want %d", m.JobsAbandoned, tc.abandoned)
			}
			t.Logf("fingerprint %#x late=%d abandoned=%d", m.Fingerprint(), m.LateJobs, m.JobsAbandoned)
		})
	}
}
