package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	"mrcprm/internal/service"
	"mrcprm/internal/sim"
	"mrcprm/internal/slo"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// testCluster is the full cluster the router partitions; shardStream
// generates jobs sized for ONE SHARD's slice (NumResources/n) so every job
// stays individually feasible after partitioning.
func testCluster() sim.Cluster {
	return sim.Cluster{NumResources: 6, MapSlots: 2, ReduceSlots: 2}
}

func shardStream(t *testing.T, n int) []*workload.Job {
	t.Helper()
	wcfg := workload.DefaultSynthetic()
	wcfg.NumResources = 3 // one shard's slice of testCluster over 2 shards
	jobs, err := wcfg.Generate(n, stats.NewStream(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func testShardConfig() Config {
	return Config{
		Base:   service.Config{Cluster: testCluster(), Manager: core.DeterministicConfig()},
		Shards: 2,
		Seed:   7,
	}
}

func TestPartition(t *testing.T) {
	parts, err := Partition(sim.Cluster{NumResources: 10, MapSlots: 2, ReduceSlots: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{3, 3, 2, 2}
	total := 0
	for i, p := range parts {
		if p.NumResources != sizes[i] {
			t.Fatalf("shard %d got %d resources, want %d", i, p.NumResources, sizes[i])
		}
		if p.MapSlots != 2 || p.ReduceSlots != 3 {
			t.Fatalf("shard %d slot shape changed: %+v", i, p)
		}
		total += p.NumResources
	}
	if total != 10 {
		t.Fatalf("partition covers %d resources, want 10", total)
	}
	if _, err := Partition(sim.Cluster{NumResources: 2}, 3); err == nil {
		t.Fatal("3 shards over 2 resources must fail")
	}
	if _, err := Partition(sim.Cluster{NumResources: 2}, 0); err == nil {
		t.Fatal("0 shards must fail")
	}
}

// Partitioning a heterogeneous cluster must slice the speed vector
// positionally (shard i gets the speeds of exactly its resources) and copy
// the memory capacity to every shard.
func TestPartitionHetero(t *testing.T) {
	full := sim.Cluster{NumResources: 5, MapSlots: 2, ReduceSlots: 1,
		Speed:       []float64{1, 1, 0.5, 0.5, 0.25},
		MemCapacity: 16,
	}
	parts, err := Partition(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantSpeeds := [][]float64{{1, 1, 0.5}, {0.5, 0.25}}
	for i, p := range parts {
		if len(p.Speed) != len(wantSpeeds[i]) {
			t.Fatalf("shard %d speed slice %v, want %v", i, p.Speed, wantSpeeds[i])
		}
		for r, s := range wantSpeeds[i] {
			if p.Speed[r] != s {
				t.Fatalf("shard %d speed slice %v, want %v", i, p.Speed, wantSpeeds[i])
			}
		}
		if p.MemCapacity != 16 {
			t.Fatalf("shard %d memory capacity %d, want 16", i, p.MemCapacity)
		}
	}
	// The slices must be copies: mutating a shard cannot corrupt the parent.
	parts[0].Speed[0] = 99
	if full.Speed[0] != 1 {
		t.Fatal("shard speed slice aliases the parent cluster's vector")
	}
	// A uniform (nil-speed) cluster partitions to nil-speed shards.
	uparts, err := Partition(sim.Cluster{NumResources: 4, MapSlots: 1, ReduceSlots: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range uparts {
		if p.Speed != nil {
			t.Fatalf("uniform shard %d grew a speed vector %v", i, p.Speed)
		}
	}
}

// routeOnce builds a fresh router, submits the stream, runs it to
// completion, and returns the assignment vector (gid per submission, in
// submission order) and the per-shard fingerprints.
func routeOnce(t *testing.T, jobs []*workload.Job, seed uint64) ([]int64, []uint64) {
	t.Helper()
	cfg := testShardConfig()
	cfg.Seed = seed
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gids := make([]int64, 0, len(jobs))
	for _, j := range jobs {
		gid, err := r.Submit(workload.SpecOf(j))
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.CloseIntake()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	fps := make([]uint64, r.Shards())
	for s := 0; s < r.Shards(); s++ {
		m, err := r.Engine(s).Result()
		if err != nil {
			t.Fatal(err)
		}
		fps[s] = m.Fingerprint()
	}
	return gids, fps
}

// TestRouterDeterminism is the replay contract: the same seed and
// submission stream must produce identical shard assignments and
// bit-identical per-shard (and combined) fingerprints on every run.
func TestRouterDeterminism(t *testing.T) {
	jobs := shardStream(t, 16)
	gids1, fps1 := routeOnce(t, jobs, 7)
	gids2, fps2 := routeOnce(t, jobs, 7)
	for i := range gids1 {
		if gids1[i] != gids2[i] {
			t.Fatalf("submission %d routed to gid %d then gid %d with the same seed", i, gids1[i], gids2[i])
		}
	}
	for s := range fps1 {
		if fps1[s] != fps2[s] {
			t.Fatalf("shard %d fingerprint %016x then %016x with the same seed", s, fps1[s], fps2[s])
		}
	}
	if CombineFingerprints(fps1) != CombineFingerprints(fps2) {
		t.Fatal("combined fingerprints diverge")
	}
	// Both shards must actually receive work (the stream is feasible on
	// either, so load balancing has to spread it).
	perShard := map[int64]int{}
	for _, gid := range gids1 {
		perShard[gid%2]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("placement collapsed onto one shard: %v", perShard)
	}
}

// TestAggregateMetrics checks the fan-in snapshot: flat fields carry fleet
// sums in the single-engine shape and the per-shard breakdown is attached.
func TestAggregateMetrics(t *testing.T) {
	jobs := shardStream(t, 12)
	cfg := testShardConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := r.Submit(workload.SpecOf(j)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.CloseIntake()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := r.Metrics()
	if len(snap.Shards) != 2 {
		t.Fatalf("snapshot has %d shard views, want 2", len(snap.Shards))
	}
	var completed int
	for _, v := range snap.Shards {
		completed += v.JobsCompleted
	}
	if snap.JobsCompleted != completed || completed != len(jobs) {
		t.Fatalf("aggregate completed %d, shard sum %d, want %d", snap.JobsCompleted, completed, len(jobs))
	}
	if !snap.Finished || snap.Fingerprint == "" {
		t.Fatalf("finished=%v fingerprint=%q, want finished with a combined fingerprint", snap.Finished, snap.Fingerprint)
	}
	fps := make([]uint64, 2)
	for s := 0; s < 2; s++ {
		m, err := r.Engine(s).Result()
		if err != nil {
			t.Fatal(err)
		}
		fps[s] = m.Fingerprint()
		if want := fmt.Sprintf("%016x", fps[s]); snap.Shards[s].Fingerprint != want {
			t.Fatalf("shard %d view fingerprint %q, want %q", s, snap.Shards[s].Fingerprint, want)
		}
	}
	if want := fmt.Sprintf("%016x", CombineFingerprints(fps)); snap.Fingerprint != want {
		t.Fatalf("combined fingerprint %q, want %q", snap.Fingerprint, want)
	}
	// Every job resolves under its global ID from the aggregate view.
	for _, st := range r.Jobs() {
		got, ok := r.Job(int64(st.ID))
		if !ok || got.State != service.StateCompleted {
			t.Fatalf("job %d: ok=%v state=%v, want completed", st.ID, ok, got.State)
		}
	}
}

// TestReadsDoNotWaitForTheRouterLock: a global ID resolves arithmetically
// (gid%N, gid/N) and each engine owns its pending work, so the read paths
// and the metrics snapshot must answer while Router.mu is held — as it is
// across the engine's journal fsync inside Submit.
func TestReadsDoNotWaitForTheRouterLock(t *testing.T) {
	r, err := New(testShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	var gids []int64
	for _, j := range shardStream(t, 4) {
		gid, err := r.Submit(workload.SpecOf(j))
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	reads := map[string]func() bool{
		"Job":      func() bool { st, ok := r.Job(gids[3]); return ok && st.ID == int(gids[3]) },
		"Jobs":     func() bool { return len(r.Jobs()) == len(gids) },
		"Schedule": func() bool { return len(r.Schedule()) == 0 }, // nothing placed before Start
		"Trace":    func() bool { _, _, ok := r.Trace(gids[3]); return ok },
		"Metrics": func() bool {
			m := r.Metrics()
			return m.Submitted == len(gids) && m.Shards[0].PendingWorkMS+m.Shards[1].PendingWorkMS > 0
		},
	}
	for name, read := range reads {
		answered := make(chan bool, 1)
		go func() { answered <- read() }()
		select {
		case ok := <-answered:
			if !ok {
				t.Errorf("%s returned the wrong answer under the held lock", name)
			}
		case <-time.After(time.Second):
			t.Errorf("%s waited for Router.mu", name)
		}
	}
}

// TestShardHTTPEndToEnd drives the sharded front-end over HTTP exactly the
// way loadgen does: submit, run+close, poll the aggregate metrics, then
// check per-job lookups and the merged Prometheus exposition.
func TestShardHTTPEndToEnd(t *testing.T) {
	jobs := shardStream(t, 10)
	cfg := testShardConfig()
	cfg.Base.Telemetry = obs.New(obs.DiscardSink{})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()
	client := srv.Client()

	var ids []int64
	for _, j := range jobs {
		buf, _ := json.Marshal(workload.SpecOf(j))
		resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			ID int64 `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit returned %d", resp.StatusCode)
		}
		ids = append(ids, body.ID)
	}

	resp, err := client.Post(srv.URL+"/v1/admin/run", "application/json", strings.NewReader(`{"close":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run returned %d", resp.StatusCode)
	}

	// Generous: the race detector on a loaded single-core host slows the
	// deterministic solves by an order of magnitude.
	deadline := time.Now().Add(120 * time.Second)
	var snap Snapshot
	for {
		resp, err := client.Get(srv.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if snap.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run did not finish: %d/%d completed", snap.JobsCompleted, len(jobs))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if snap.JobsCompleted != len(jobs) || len(snap.Shards) != 2 || snap.Fingerprint == "" {
		t.Fatalf("final snapshot completed=%d shards=%d fingerprint=%q", snap.JobsCompleted, len(snap.Shards), snap.Fingerprint)
	}
	// The one registry is the fleet's: reported once, at the top level.
	if snap.Counters[obs.CounterShardRouted] != int64(len(jobs)) {
		t.Fatalf("top-level counters %v, want %s = %d", snap.Counters, obs.CounterShardRouted, len(jobs))
	}
	for _, v := range snap.Shards {
		if v.Counters != nil {
			t.Fatalf("shard %d view repeats the registry: counters %v", v.Shard, v.Counters)
		}
	}

	for _, id := range ids {
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || st.ID != int(id) || st.State != service.StateCompleted {
			t.Fatalf("job %d: status %d state %v id %d", id, resp.StatusCode, st.State, st.ID)
		}
	}

	resp, err = client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if _, err := prom.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := prom.String()
	for _, want := range []string{"mrcp_shard_routed 10", "mrcp_jobs_completed_total 10", "mrcp_slo_miss_rate"} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged exposition is missing %q:\n%s", want, text)
		}
	}
}

// TestFleetBurnIsOneAnswer: when each shard's burn window is under
// MinSample but the fleet's is over it and over budget, the fleet is
// burning, and /v1/metrics, /metrics and /readyz must all say so — they
// render one snapshot.
func TestFleetBurnIsOneAnswer(t *testing.T) {
	cfg := testShardConfig()
	cfg.Base.SLO = slo.Config{MissBudget: 0.05, WindowMS: 1 << 40}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(r)
	// 24 equal, unmeetable jobs, accepted because admission is off; least
	// load routes them 12 to a shard, under slo.MinSample (20) on each and
	// over it for the fleet.
	const n = 24
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"arrivalMs":%d,"deadlineMs":%d,"mapExecMs":[500]}`, i*10, i*10+1)
		if rp := call(h, "POST", "/v1/jobs", body); rp.status != http.StatusAccepted {
			t.Fatalf("submit: %d %s", rp.status, rp.body)
		}
	}
	// The intake stays open, so the run idles once the jobs finish and the
	// burn state holds still.
	if rp := call(h, "POST", "/v1/admin/run", ""); rp.status != http.StatusOK {
		t.Fatalf("run: %d %s", rp.status, rp.body)
	}
	deadline := time.Now().Add(60 * time.Second)
	for snap := r.Metrics(); snap.JobsCompleted+snap.JobsAbandoned < n; snap = r.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(call(h, "GET", "/v1/metrics", "").body), &snap); err != nil {
		t.Fatal(err)
	}
	for _, v := range snap.Shards {
		if v.SLO.Finished >= v.SLO.MinSample || v.SLO.Burning {
			t.Fatalf("shard %d window %+v: the scenario needs every shard under MinSample", v.Shard, *v.SLO)
		}
	}
	if snap.SLO == nil || !snap.SLO.Burning || snap.SLO.Finished != n {
		t.Fatalf("/v1/metrics fleet burn %+v, want burning over %d finishes", snap.SLO, n)
	}
	scrape, err := obs.ParsePrometheus(strings.NewReader(call(h, "GET", "/metrics", "").body))
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape.Values["mrcp_slo_burning"]; got != 1 {
		t.Errorf("/metrics mrcp_slo_burning = %v, want 1 (burn rate %v)", got, scrape.Values["mrcp_slo_burn_rate"])
	}
	if rp := call(h, "GET", "/readyz", ""); rp.status != http.StatusServiceUnavailable || !strings.Contains(rp.body, `"slo-burn"`) {
		t.Errorf("/readyz %d %s, want 503 slo-burn", rp.status, rp.body)
	}
	r.CloseIntake()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPendingWorkDrainsToZero: each engine takes a job's work back out of
// its PendingWork exactly once, whether the job completes or is abandoned,
// so after a faulted 2-shard run every shard's pending work is exactly 0 —
// on /v1/metrics and in the /metrics exposition alike.
func TestPendingWorkDrainsToZero(t *testing.T) {
	cfg := testShardConfig()
	cfg.Base.Policy = "fifo"
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Half of all attempts fail, so some task exhausts its retries.
	if err := r.ApplyFaults(service.FaultSpec{FailRate: 0.5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(r)
	for _, j := range shardStream(t, 20) {
		if _, err := r.Submit(workload.SpecOf(j)); err != nil {
			t.Fatal(err)
		}
	}
	if w := r.Metrics().Shards[0].PendingWorkMS; w == 0 {
		t.Fatal("shard 0 holds no pending work before the run")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.CloseIntake()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(call(h, "GET", "/v1/metrics", "").body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobsAbandoned == 0 || snap.JobsCompleted == 0 {
		t.Fatalf("completed=%d abandoned=%d: the run needs both", snap.JobsCompleted, snap.JobsAbandoned)
	}
	scrape, err := obs.ParsePrometheus(strings.NewReader(call(h, "GET", "/metrics", "").body))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range snap.Shards {
		if v.PendingWorkMS != 0 {
			t.Errorf("shard %d: /v1/metrics pendingWorkMs %d after the run, want 0", v.Shard, v.PendingWorkMS)
		}
		name := fmt.Sprintf("mrcp_%s%d", obs.GaugeShardPendingWorkPrefix, v.Shard)
		if got, ok := scrape.Values[name]; !ok || got != float64(v.PendingWorkMS) {
			t.Errorf("/metrics %s = %v (present %v), /v1/metrics says %d", name, got, ok, v.PendingWorkMS)
		}
	}
	// Every shard's run has ended: a fault plan or an outage is a conflict.
	for _, body := range []string{`{"failRate":0.1}`, `{"resource":5,"durationMs":1000}`} {
		if rp := call(h, "POST", "/v1/admin/faults", body); rp.status != http.StatusConflict {
			t.Errorf("%s after the run: %d %s, want 409", body, rp.status, rp.body)
		}
	}
}

// TestRouterStreamsEngineTelemetry: the router and every engine share the
// caller's telemetry handle, so at every shard count the engines' solver,
// manager, sim and SLO events reach its sink next to the router's own, and
// the one registry counts each submission and each completion once — not
// once per shard.
func TestRouterStreamsEngineTelemetry(t *testing.T) {
	specs := []workload.JobSpec{
		// Feasible on no shard and admitted anyway (admission is off): it
		// finishes late, so the SLO monitor attributes a miss.
		{DeadlineMS: 1, MapExecMS: []int64{500}},
	}
	for _, j := range shardStream(t, 6) {
		specs = append(specs, workload.SpecOf(j))
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-shard", n), func(t *testing.T) {
			sink := &obs.MemorySink{}
			cfg := testShardConfig()
			cfg.Shards = n
			cfg.Base.Telemetry = obs.New(sink)
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHandler(r)
			for _, spec := range specs {
				body, _ := json.Marshal(spec)
				if rp := call(h, "POST", "/v1/jobs", string(body)); rp.status != http.StatusAccepted {
					t.Fatalf("submit: %d %s", rp.status, rp.body)
				}
			}
			if rp := call(h, "POST", "/v1/admin/run", `{"close":true}`); rp.status != http.StatusOK {
				t.Fatalf("run: %d %s", rp.status, rp.body)
			}
			if err := r.Wait(); err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for _, ev := range sink.Events() {
				seen[ev.Layer+"/"+ev.Kind]++
			}
			for _, want := range []string{"solver/solve", "manager/reschedule", "sim/sample", "obs/slo_attribution", "shard/route"} {
				if seen[want] == 0 {
					t.Errorf("sink saw no %s event: %v", want, seen)
				}
			}
			scrape, err := obs.ParsePrometheus(strings.NewReader(call(h, "GET", "/metrics", "").body))
			if err != nil {
				t.Fatal(err)
			}
			if got := scrape.Values["mrcp_jobs_completed_total"]; got != float64(len(specs)) {
				t.Fatalf("mrcp_jobs_completed_total = %v, want %d", got, len(specs))
			}
			for name, want := range map[string]int{"mrcp_wall_admission_ms": len(specs), "mrcp_job_e2e_ms": len(specs)} {
				if h := scrape.Hists[name]; h == nil || int(h.Count) != want {
					t.Errorf("%s: %+v, want count %d", name, h, want)
				}
			}
		})
	}
}

// TestRouterRejectsInfeasible: a job no shard can fit must come back as the
// same typed admission error the single-engine service returns, consuming a
// global ID.
func TestRouterRejectsInfeasible(t *testing.T) {
	cfg := testShardConfig()
	cfg.Base.Admission = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gid, err := r.Submit(workload.JobSpec{DeadlineMS: 1_000, MapExecMS: []int64{500_000}})
	var ae *core.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("infeasible submission returned %v, want *core.AdmissionError", err)
	}
	if ae.JobID != int(gid) {
		t.Fatalf("rejection carries id %d, want global id %d", ae.JobID, gid)
	}
	st, ok := r.Job(gid)
	if !ok || st.State != service.StateRejected {
		t.Fatalf("rejected job resolves to %+v ok=%v", st, ok)
	}
}

// Stop on a never-started router must still close Done (no Start means no
// completion watcher) and leave the router unstartable.
func TestRouterStopBeforeStart(t *testing.T) {
	r, err := New(testShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	r.Stop() // idempotent: must not launch a second watcher
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Stop before Start did not close Done")
	}
	if err := r.Wait(); !errors.Is(err, service.ErrStopped) {
		t.Fatalf("run error %v, want ErrStopped", err)
	}
	if err := r.Start(); !errors.Is(err, service.ErrRunning) {
		t.Fatalf("Start after Stop returned %v, want ErrRunning", err)
	}
}
