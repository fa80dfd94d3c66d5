package shard

import (
	"path/filepath"
	"testing"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/workload"
)

func journaledConfig(t *testing.T) Config {
	t.Helper()
	cfg := testShardConfig()
	cfg.Base.JournalPath = filepath.Join(t.TempDir(), "run.wal")
	cfg.Base.JournalSync = "none"
	return cfg
}

// TestShardRecoveryEquivalence is the sharded durability contract: a run
// interrupted at an arbitrary point and recovered from its N journal
// segments finishes with the same per-shard — and therefore the same
// aggregate — fingerprint as the uninterrupted sharded run.
func TestShardRecoveryEquivalence(t *testing.T) {
	jobs := shardStream(t, 16)

	// Uninterrupted reference run (no journal; routing does not depend on it).
	_, wantFPs := routeOnce(t, jobs, 7)
	want := CombineFingerprints(wantFPs)

	for _, after := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond} {
		t.Run(after.String(), func(t *testing.T) {
			cfg := journaledConfig(t)
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if _, err := r.Submit(workload.SpecOf(j)); err != nil {
					t.Fatal(err)
				}
			}
			r.CloseIntake()
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(after)
			r.Stop()
			<-r.Done()

			r2, info, err := Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Accepted != len(jobs) || !info.Closed {
				t.Fatalf("recovered %d accepted (want %d), closed=%v", info.Accepted, len(jobs), info.Closed)
			}
			if len(info.Shards) != 2 {
				t.Fatalf("recovered %d segments, want 2", len(info.Shards))
			}
			if err := r2.Start(); err != nil {
				t.Fatal(err)
			}
			if err := r2.Wait(); err != nil {
				t.Fatal(err)
			}
			fps := make([]uint64, r2.Shards())
			for s := range fps {
				m, err := r2.Engine(s).Result()
				if err != nil {
					t.Fatal(err)
				}
				fps[s] = m.Fingerprint()
				if fps[s] != wantFPs[s] {
					t.Fatalf("shard %d recovered fingerprint %016x, uninterrupted %016x", s, fps[s], wantFPs[s])
				}
			}
			if got := CombineFingerprints(fps); got != want {
				t.Fatalf("recovered aggregate fingerprint %016x, uninterrupted %016x", got, want)
			}
		})
	}
}

// TestRecoverRestoresWorkOnHeteroShards: Submit accrues effectiveWork
// (nominal work over the shard's mean speed), so recovery must seed the
// load estimate from the same formula — otherwise the all-slow shard comes
// back looking half as loaded and post-recovery routing diverges from the
// uninterrupted run.
func TestRecoverRestoresWorkOnHeteroShards(t *testing.T) {
	cluster, err := core.TwoClassSpec(8, 2, 2, 2).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	cfg := journaledConfig(t)
	cfg.Base.Cluster = cluster // shard 0 is all speed 1, shard 1 all speed 0.5
	cfg.Base.Policy = "fifo"
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range shardStream(t, 20) {
		if _, err := r.Submit(workload.SpecOf(j)); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]int64(nil), r.work...)
	if before[0] == 0 || before[1] == 0 {
		t.Fatalf("stream left a shard idle: work %v", before)
	}

	// Crash before the run.
	r2, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range before {
		if r2.work[s] != before[s] {
			t.Fatalf("recovered work %v, before the crash %v", r2.work, before)
		}
	}
}
