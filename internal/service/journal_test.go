package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/wal"
	"mrcprm/internal/workload"
)

// testStream generates a deterministic job stream sized for fast runs.
func testStream(t *testing.T, n int) ([]*workload.Job, sim.Cluster) {
	t.Helper()
	wcfg := workload.DefaultSynthetic()
	wcfg.NumResources = 10
	jobs, err := wcfg.Generate(n, stats.NewStream(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	return jobs, sim.Cluster{NumResources: 10, MapSlots: 2, ReduceSlots: 2}
}

// refFingerprint runs the stream through a plain simulator — the golden
// equivalent of an uninterrupted deterministic engine run.
func refFingerprint(t *testing.T, cluster sim.Cluster, jobs []*workload.Job) uint64 {
	t.Helper()
	s, err := sim.New(cluster, core.New(cluster, deterministicCfg()), jobs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m.Fingerprint()
}

// submitAll pushes the whole stream into the engine pre-Start.
func submitAll(t *testing.T, e *Engine, jobs []*workload.Job) {
	t.Helper()
	for _, j := range jobs {
		if _, err := e.Submit(workload.SpecOf(j)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillRecoverEquivalence is the acceptance criterion for the journal: a
// virtual-mode run interrupted at an arbitrary point and recovered from its
// journal produces a metrics fingerprint byte-identical to the
// uninterrupted run's.
func TestKillRecoverEquivalence(t *testing.T) {
	jobs, cluster := testStream(t, 20)
	want := refFingerprint(t, cluster, jobs)

	// The interruption instant is wall-clock arbitrary by construction:
	// each subtest stops the engine at a different point in its run
	// (including possibly before the first step and after the last).
	for _, after := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond} {
		t.Run(after.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			cfg := Config{Cluster: cluster, Manager: deterministicCfg(),
				JournalPath: path, JournalSync: "none"}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			submitAll(t, e, jobs)
			e.CloseIntake()
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(after)
			e.Stop()
			<-e.Done()

			r, info, err := Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Accepted != len(jobs) || !info.Closed {
				t.Fatalf("recovered %d accepted (want %d), closed=%v", info.Accepted, len(jobs), info.Closed)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(); err != nil {
				t.Fatal(err)
			}
			m, _ := r.Result()
			if m.Fingerprint() != want {
				t.Fatalf("recovered fingerprint %016x, uninterrupted %016x", m.Fingerprint(), want)
			}
		})
	}
}

// TestRecoverReplaysFaultSwitch covers the recFaults path: a fault plan
// installed through ApplyFaults before Start replays into an identical
// recovered run (fault injection is seeded, hence deterministic).
func TestRecoverReplaysFaultSwitch(t *testing.T) {
	jobs, cluster := testStream(t, 5)
	path := filepath.Join(t.TempDir(), "run.wal")
	cfg := Config{Cluster: cluster, Manager: deterministicCfg(),
		JournalPath: path, JournalSync: "none"}
	spec := FaultSpec{FailRate: 0.05, StragglerProb: 0, Seed: 7}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyFaults(spec); err != nil {
		t.Fatal(err)
	}
	submitAll(t, e, jobs)
	e.CloseIntake()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	m, _ := e.Result()
	if m.TasksFailed == 0 {
		t.Fatal("fault plan injected no failures; test is vacuous")
	}

	r, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.FaultSwitches != 1 {
		t.Fatalf("recovered %d fault switches, want 1", info.FaultSwitches)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	rm, _ := r.Result()
	if rm.Fingerprint() != m.Fingerprint() {
		t.Fatalf("recovered fingerprint %016x, original %016x", rm.Fingerprint(), m.Fingerprint())
	}
}

// frameOffsets returns the byte offset just past each record of a journal
// file, so tests can truncate at exact record boundaries.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(0)
	for off+8 <= int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 8 + n
		offs = append(offs, off)
	}
	return offs
}

// TestRecoverTornTail records one journal holding every record kind — the
// meta header, accepted submissions and an admission-rejected one, a fault
// switch, an outage and the intake close — and recovers every prefix of it.
// Cut at a record boundary, the recovered engine, closed and run, has the
// fingerprint of a fresh engine that received the same inputs through the
// live calls; cut inside a record, it recovers to the boundary before that
// record and reports the torn bytes.
func TestRecoverTornTail(t *testing.T) {
	jobs, cluster := testStream(t, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	cfg := Config{Cluster: cluster, Manager: deterministicCfg(), Admission: true,
		JournalPath: path, JournalSync: "none"}

	// inputs are the live calls behind the records after the meta header.
	var inputs []func(*Engine) error
	submit := func(spec workload.JobSpec) {
		inputs = append(inputs, func(e *Engine) error {
			_, err := e.Submit(spec)
			var ae *core.AdmissionError
			if errors.As(err, &ae) {
				return nil
			}
			return err
		})
	}
	for _, j := range jobs[:3] {
		submit(workload.SpecOf(j))
	}
	infeasible := workload.JobSpec{DeadlineMS: 10, MapExecMS: []int64{500_000_000}}
	submit(infeasible)
	inputs = append(inputs, func(e *Engine) error { return e.ApplyFaults(FaultSpec{FailRate: 0.05, Seed: 7}) })
	for _, j := range jobs[3:5] {
		submit(workload.SpecOf(j))
	}
	down := jobs[0].Arrival + 1_000
	inputs = append(inputs, func(e *Engine) error {
		_, _, err := e.InjectOutage(0, down, down+120_000)
		return err
	})
	for _, j := range jobs[5:] {
		submit(workload.SpecOf(j))
	}
	inputs = append(inputs, func(e *Engine) error { e.CloseIntake(); return nil })

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		if err := in(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(infeasible); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after the close: %v", err)
	}
	if st, _ := e.Job(3); st.State != StateRejected {
		t.Fatalf("the infeasible submission reads %q, want rejected", st.State)
	}
	e.Stop()
	<-e.Done()

	offs := frameOffsets(t, path)
	if len(offs) != 1+len(inputs) {
		t.Fatalf("journal has %d records, want %d", len(offs), 1+len(inputs))
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// recoverCut recovers the journal's first size bytes, checks that k
	// records survive, and closes, runs and fingerprints the engine.
	recoverCut := func(t *testing.T, size int64, k int) (uint64, *RecoveryInfo) {
		t.Helper()
		tcfg := cfg
		tcfg.JournalPath = filepath.Join(t.TempDir(), "cut.wal")
		if err := os.WriteFile(tcfg.JournalPath, pristine[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		r, info, err := Recover(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if info.Records != k {
			t.Fatalf("recovered %d records, want %d", info.Records, k)
		}
		return runFingerprint(t, r), info
	}

	// want[k] is the fingerprint of the first k records.
	want := make([]uint64, len(offs)+1)
	t.Run("boundary", func(t *testing.T) {
		for k := range want {
			t.Run(fmt.Sprint(k), func(t *testing.T) {
				fresh, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), Admission: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range inputs[:max(k-1, 0)] {
					if err := in(fresh); err != nil {
						t.Fatal(err)
					}
				}
				want[k] = runFingerprint(t, fresh)
				if m, _ := fresh.Result(); k == len(offs) && (m.TasksFailed == 0 || m.Outages != 1) {
					t.Fatalf("the whole journal's run failed %d tasks and took %d outages; the fault inputs are vacuous",
						m.TasksFailed, m.Outages)
				}
				size := int64(0)
				if k > 0 {
					size = offs[k-1]
				}
				got, info := recoverCut(t, size, k)
				if got != want[k] {
					t.Fatalf("recovered fingerprint %016x, live calls %016x", got, want[k])
				}
				if info.TornBytes != 0 {
					t.Fatalf("boundary cut reported %d torn bytes", info.TornBytes)
				}
			})
		}
	})
	t.Run("mid-record", func(t *testing.T) {
		start := int64(0)
		for k, end := range offs {
			t.Run(fmt.Sprint(k), func(t *testing.T) {
				got, info := recoverCut(t, (start+end)/2, k)
				if info.TornBytes == 0 {
					t.Fatal("mid-record cut not reported as torn")
				}
				if got != want[k] {
					t.Fatalf("recovered fingerprint %016x, want the previous boundary's %016x", got, want[k])
				}
			})
			start = end
		}
	})
}

// runFingerprint closes the engine's intake, runs it to the end and returns
// its metrics fingerprint.
func runFingerprint(t *testing.T, e *Engine) uint64 {
	t.Helper()
	runToEnd(t, e)
	m, _ := e.Result()
	return m.Fingerprint()
}

// TestRecoverRefusesOldFormatRecords: a journal from the build that could
// migrate jobs between shards may hold a withdraw record or a tagged submit,
// and an older one a timetable audit record. This build knows none of them,
// and replaying one as something else would run a job under the wrong
// identity or skip what the operator meant to audit — so recovery refuses
// the segment, naming the record, and hands back no engine.
func TestRecoverRefusesOldFormatRecords(t *testing.T) {
	jobs, cluster := testStream(t, 2)
	for _, tc := range []struct {
		name, payload, want string
	}{
		{"withdraw", `{"kind":"withdraw","simMs":0,"id":1}`,
			`journal record 3 (withdraw): unknown record kind "withdraw"`},
		{"tagged-submit", `{"kind":"submit","simMs":0,"id":2,"spec":{"arrivalMs":0,"earliestStartMs":0,"deadlineMs":3600000,"mapExecMs":[1000]},"tag":7}`,
			`journal record 3 (submit): json: unknown field "tag"`},
		{"timetable", `{"kind":"timetable","simMs":17000,"id":0}`,
			`journal record 3 (timetable): unknown record kind "timetable"`},
		{"trailing-data", `{"kind":"close","simMs":0,"id":0} {}`,
			`journal record 3 (close): unexpected data after the JSON value`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cluster: cluster, Policy: "fifo",
				JournalPath: filepath.Join(t.TempDir(), "run.wal"), JournalSync: "none"}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			submitAll(t, e, jobs)
			e.Stop()
			<-e.Done()
			// Records 0-2 are the meta header and two good submits.
			j, recs, err := wal.Open(cfg.JournalPath, wal.Options{})
			if err != nil || len(recs) != 3 {
				t.Fatalf("reopened journal: %d records, err %v", len(recs), err)
			}
			if err := j.Append([]byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			r, info, err := Recover(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Recover returned %v, want an error containing %q", err, tc.want)
			}
			if r != nil || info != nil {
				t.Fatalf("refused recovery still returned engine %v, info %+v", r, info)
			}
		})
	}
}

// TestNewRefusesDirtyJournal pins the guard against silently appending a
// second run to an existing journal.
func TestNewRefusesDirtyJournal(t *testing.T) {
	jobs, cluster := testStream(t, 3)
	path := filepath.Join(t.TempDir(), "run.wal")
	cfg := Config{Cluster: cluster, Manager: deterministicCfg(),
		JournalPath: path, JournalSync: "none"}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, e, jobs)
	e.Stop()
	<-e.Done()

	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("New on a dirty journal: %v, want a pointer to Recover", err)
	}
}

// TestRecoverRejectsMismatchedConfig pins the meta-record guard: a journal
// must not replay into an engine with a different policy or cluster.
func TestRecoverRejectsMismatchedConfig(t *testing.T) {
	jobs, cluster := testStream(t, 3)
	path := filepath.Join(t.TempDir(), "run.wal")
	cfg := Config{Cluster: cluster, Manager: deterministicCfg(),
		JournalPath: path, JournalSync: "none"}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, e, jobs)
	e.Stop()
	<-e.Done()

	bad := cfg
	bad.Policy = "minedf"
	if _, _, err := Recover(bad); err == nil {
		t.Fatal("Recover accepted a journal written by another policy")
	}
	bad = cfg
	bad.Cluster.NumResources = 5
	if _, _, err := Recover(bad); err == nil {
		t.Fatal("Recover accepted a journal written for another cluster")
	}
	// A journal replays under the manager configuration it was written
	// with; the refusal names the first differing core.Config field.
	for _, tc := range []struct {
		field  string
		mutate func(*core.Config)
	}{
		{"DeferralLead", func(c *core.Config) { c.DeferralLead = 0 }},
		{"WarmStart", func(c *core.Config) { c.WarmStart = true }},
	} {
		bad = cfg
		tc.mutate(&bad.Manager)
		_, _, err := Recover(bad)
		if err == nil {
			t.Errorf("Recover accepted a journal written under another %s", tc.field)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("refusal %q does not name %s", err, tc.field)
		}
	}
}

// TestSubmitJobMatchesReplay: the job SubmitJob registers is the caller's
// probe, built under ID 0 and bound after the wall restamp or the virtual
// clamp; it must equal the job journal replay rebuilds from the journaled
// spec, task names and memory demands included. A first submission makes
// the probe's ID differ from the one it is bound to.
func TestSubmitJobMatchesReplay(t *testing.T) {
	cases := []struct {
		name    string
		mode    Mode
		advance bool // run the first job so the virtual clock passes 1000 ms
		spec    workload.JobSpec
	}{
		{"wall restamp", Wall, false, workload.JobSpec{ArrivalMS: 5_000, EarliestStartMS: 7_000,
			DeadlineMS: 60_000, MapExecMS: []int64{1_000, 2_000}, ReduceExecMS: []int64{500}}},
		{"virtual clamp", Virtual, true, workload.JobSpec{EarliestStartMS: 400,
			DeadlineMS: 60_000, MapExecMS: []int64{1_000, 2_000}, ReduceExecMS: []int64{500}}},
		{"memory slices", Virtual, false, workload.JobSpec{ArrivalMS: 50, DeadlineMS: 60_000,
			MapExecMS: []int64{1_000, 2_000, 300}, MapMem: []int64{4, 2},
			ReduceExecMS: []int64{500}, ReduceMem: []int64{3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cluster: memCluster, Policy: "fifo", Mode: tc.mode,
				JournalPath: filepath.Join(t.TempDir(), "run.wal"), JournalSync: "none"}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Submit(fittingSpec); err != nil {
				t.Fatal(err)
			}
			if tc.advance {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for e.NowMS() < 1_000 {
					if time.Now().After(deadline) {
						t.Fatalf("virtual clock stuck at %d ms", e.NowMS())
					}
					time.Sleep(time.Millisecond)
				}
			}
			probe, err := tc.spec.Job(0)
			if err != nil {
				t.Fatal(err)
			}
			id, err := e.SubmitJob(tc.spec, probe)
			if err != nil {
				t.Fatal(err)
			}
			e.Stop()
			<-e.Done()
			if got := e.entries[id].job; got != probe {
				t.Fatal("SubmitJob registered another job than the one handed in")
			}
			if tc.mode == Wall && probe.Arrival == tc.spec.ArrivalMS {
				t.Fatalf("wall-mode arrival %d was not restamped", probe.Arrival)
			}
			if tc.advance && probe.EarliestStart < 1_000 {
				t.Fatalf("stale earliest start %d was not clamped to the clock", probe.EarliestStart)
			}

			r, _, err := Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			if replayed := r.entries[id].job; !reflect.DeepEqual(replayed, probe) {
				t.Fatalf("registered job differs from the replayed one:\n%s\n%s", jobString(probe), jobString(replayed))
			}
		})
	}
}

// jobString renders a job with its tasks for a failure message.
func jobString(j *workload.Job) string {
	s := fmt.Sprintf("job %d arrival %d start %d deadline %d:", j.ID, j.Arrival, j.EarliestStart, j.Deadline)
	for _, t := range j.Tasks() {
		s += fmt.Sprintf(" %s(job %d exec %d mem %d)", t.ID, t.JobID, t.Exec, t.Mem)
	}
	return s
}

// TestBackpressureSheds covers the MaxPending bound: excess submissions are
// shed with a typed, retry-hinted error and counted in the snapshot.
func TestBackpressureSheds(t *testing.T) {
	jobs, cluster := testStream(t, 6)
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), MaxPending: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:4] {
		if _, err := e.Submit(workload.SpecOf(j)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = e.Submit(workload.SpecOf(jobs[4]))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("5th submission: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("5th submission error %T carries no *OverloadError", err)
	}
	if oe.Pending != 4 || oe.Max != 4 || oe.RetryAfter < time.Second {
		t.Fatalf("overload detail %+v", oe)
	}
	if ok, reason := e.Metrics().Ready(); ok || reason != "overloaded" {
		t.Fatalf("Ready() = %v, %q during overload", ok, reason)
	}
	snap := e.Metrics()
	if snap.Shed != 1 || snap.Pending != 4 || snap.MaxPending != 4 {
		t.Fatalf("snapshot shed=%d pending=%d max=%d", snap.Shed, snap.Pending, snap.MaxPending)
	}

	// Finishing the run drains the depth; the shed count is cumulative.
	e.CloseIntake()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	snap = e.Metrics()
	if snap.Pending != 0 || snap.Shed != 1 {
		t.Fatalf("post-run shed=%d pending=%d", snap.Shed, snap.Pending)
	}
}

// TestReadyLifecycle pins the readiness reasons over an engine's life.
func TestReadyLifecycle(t *testing.T) {
	jobs, cluster := testStream(t, 2)
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := e.Metrics().Ready(); !ok {
		t.Fatal("fresh engine not ready")
	}
	submitAll(t, e, jobs)
	e.CloseIntake()
	if ok, reason := e.Metrics().Ready(); ok || reason != "draining" {
		t.Fatalf("Ready() = %v, %q after CloseIntake", ok, reason)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if ok, reason := e.Metrics().Ready(); ok || reason != "finished" {
		t.Fatalf("Ready() = %v, %q after the run", ok, reason)
	}
}

// TestHTTPBackpressureAndReadyz covers the HTTP surface of overload:
// /readyz flips to 503 and submissions get 429 with a Retry-After header.
func TestHTTPBackpressureAndReadyz(t *testing.T) {
	jobs, cluster := testStream(t, 4)
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(engineHandler(e))
	defer srv.Close()

	if got := getStatus(t, srv.URL+"/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before load: %d", got)
	}
	for _, j := range jobs[:2] {
		resp := postSpec(t, srv.URL, workload.SpecOf(j))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
	}
	resp := postSpec(t, srv.URL, workload.SpecOf(jobs[2]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := getStatus(t, srv.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during overload: %d, want 503", got)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHTTPBodyCap pins the MaxBytesReader guard: an oversized submission
// body is rejected as malformed rather than read unboundedly.
func TestHTTPBodyCap(t *testing.T) {
	_, cluster := testStream(t, 1)
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(engineHandler(e))
	defer srv.Close()

	huge := fmt.Sprintf(`{"arrivalMs":0,"deadlineMs":1,"mapExecMs":[1%s]}`,
		strings.Repeat(",1", maxBodyBytes/2))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
	}
}

func postSpec(t *testing.T, base string, spec workload.JobSpec) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", specReader(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func specReader(t *testing.T, spec workload.JobSpec) *strings.Reader {
	t.Helper()
	return strings.NewReader(fmt.Sprintf(
		`{"arrivalMs":%d,"earliestStartMs":%d,"deadlineMs":%d,"mapExecMs":[%s]}`,
		spec.ArrivalMS, spec.EarliestStartMS, spec.DeadlineMS, joinInt64(spec.MapExecMS)))
}

func joinInt64(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
