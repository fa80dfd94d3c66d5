package shard

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestRecoverRestoresWorkOnHeteroShards: an engine's pending work is
// nominal work over its shard's mean speed, added when a submission
// registers, so journal replay must restore it exactly — otherwise the
// all-slow shard comes back looking half as loaded and post-recovery
// routing diverges from the uninterrupted run.
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
	before := pendingWork(r)
	if before[0] == 0 || before[1] == 0 {
		t.Fatalf("stream left a shard idle: work %v", before)
	}

	// Crash before the run.
	r2, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after := pendingWork(r2); !slices.Equal(after, before) {
		t.Fatalf("recovered work %v, before the crash %v", after, before)
	}
}

// pendingWork reads every shard engine's pending work, in shard order.
func pendingWork(r *Router) []int64 {
	out := make([]int64, r.Shards())
	for s := range out {
		out[s] = r.Engine(s).PendingWork()
	}
	return out
}

// TestRecoverRefusesMissingSegment: recovery fails closed. A 1-segment
// journal recovered as 2 shards, or a base path with no segment at all, is
// an error naming the missing segment — never a blank run — while an
// existing empty or torn segment still recovers to a blank engine.
func TestRecoverRefusesMissingSegment(t *testing.T) {
	cfg := journaledConfig(t)
	cfg.Shards = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range shardStream(t, 3) {
		if _, err := r.Submit(workload.SpecOf(j)); err != nil {
			t.Fatal(err)
		}
	}
	r.Stop()

	two := cfg
	two.Shards = 2
	none := cfg
	none.Base.JournalPath = filepath.Join(t.TempDir(), "never.wal")
	for _, tc := range []struct {
		name    string
		cfg     Config
		missing string
	}{
		{"wrong shard count", two, SegmentPath(cfg.Base.JournalPath, 1)},
		{"no journal", none, SegmentPath(none.Base.JournalPath, 0)},
	} {
		r, info, err := Recover(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.missing) {
			t.Fatalf("%s: Recover returned %v, want an error naming %s", tc.name, err, tc.missing)
		}
		if r != nil || info != nil {
			t.Fatalf("%s: refused recovery still returned router %v, info %+v", tc.name, r, info)
		}
	}
	if _, err := os.Stat(SegmentPath(none.Base.JournalPath, 0)); !os.IsNotExist(err) {
		t.Fatalf("refused recovery created a segment: %v", err)
	}

	// A short header is a torn tail: the segment exists, so it recovers.
	for name, content := range map[string][]byte{"empty": nil, "torn": {5, 0, 0}} {
		c := cfg
		c.Base.JournalPath = filepath.Join(t.TempDir(), name+".wal")
		if err := os.WriteFile(SegmentPath(c.Base.JournalPath, 0), content, 0o644); err != nil {
			t.Fatal(err)
		}
		r, info, err := Recover(c)
		if err != nil {
			t.Fatalf("%s segment: %v", name, err)
		}
		if info.Records != 0 || info.Shards[0].TornBytes != int64(len(content)) || r.Metrics().Submitted != 0 {
			t.Fatalf("%s segment recovered %+v (segment %+v), want a blank run", name, info, info.Shards[0])
		}
		r.Stop()
	}
}
