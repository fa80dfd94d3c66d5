package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// maxBytesPerPost bounds what one POST /v1/jobs allocates through the
// router's handler with journals on: 1.5x the 16.4 kB measured on
// linux/amd64 with go1.24 (about 21 kB under -race), where a POST builds
// its job once and decodes into a recycled spec. With the engine building
// the job a second time and a fresh decode target per POST, the same
// stream allocates 28.3 kB per POST.
const maxBytesPerPost = 24_600

// TestSubmitAllocations drives a fixed stream through NewHandler(router)
// before Start, so every byte allocated belongs to a POST: decode, probe,
// routing, admission, journal record and registration.
func TestSubmitAllocations(t *testing.T) {
	jobs := shardStream(t, 200)
	cfg := testShardConfig()
	cfg.Base.Policy = "fifo"
	cfg.Base.JournalPath = filepath.Join(t.TempDir(), "run.wal")
	cfg.Base.JournalSync = "none"
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	h := NewHandler(r)
	reqs := make([]*http.Request, len(jobs))
	recs := make([]*httptest.ResponseRecorder, len(jobs))
	for i, j := range jobs {
		body, err := json.Marshal(workload.SpecOf(j))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	perPost := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs))
	t.Logf("%.0f bytes allocated per POST", perPost)
	if perPost > maxBytesPerPost {
		t.Fatalf("a POST allocates %.0f bytes, limit %d", perPost, maxBytesPerPost)
	}
}

// completions records every completed job; both shards' engines report
// to it from their own run loops.
type completions struct {
	sim.NopObserver
	mu   sync.Mutex
	jobs []*workload.Job
}

func (c *completions) JobCompleted(_ int64, j *workload.Job, _ int64) {
	c.mu.Lock()
	c.jobs = append(c.jobs, j)
	c.mu.Unlock()
}

// TestShedProbeBindsToAcceptingShard: shard 0 holds the least pending work
// but is full, so it sheds the probe; shard 1 accepts it. The job shard 1
// runs carries shard 1's local ID and task names, not the probe's.
func TestShedProbeBindsToAcceptingShard(t *testing.T) {
	done := &completions{}
	cfg := testShardConfig()
	cfg.Base.Policy = "fifo"
	cfg.Base.MaxPending = 2
	cfg.Base.Observer = done
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := workload.JobSpec{DeadlineMS: 1_000_000, MapExecMS: []int64{100}}
	large := workload.JobSpec{DeadlineMS: 1_000_000, MapExecMS: []int64{5_000, 5_000}}
	for _, sub := range []struct {
		shard int
		spec  workload.JobSpec
	}{{0, small}, {0, small}, {1, large}} {
		if _, err := r.Engine(sub.shard).Submit(sub.spec); err != nil {
			t.Fatal(err)
		}
	}
	spec := workload.JobSpec{DeadlineMS: 1_000_000, MapExecMS: []int64{300, 400}, ReduceExecMS: []int64{200}}
	gid, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := r.gid(1, 1); gid != want {
		t.Fatalf("routed to global ID %d, want %d (shard 1, local 1)", gid, want)
	}
	if shed := r.Engine(0).Metrics().Shed; shed != 1 {
		t.Fatalf("shard 0 shed %d submissions, want 1", shed)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.CloseIntake()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	var got *workload.Job
	for _, j := range done.jobs {
		if j.NumTasks() == 3 {
			got = j
		}
	}
	if got == nil {
		t.Fatalf("the routed job never completed (%d jobs did)", len(done.jobs))
	}
	want, err := spec.Job(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 1 {
		t.Fatalf("shard 1 ran the job as ID %d, want 1", got.ID)
	}
	for i, task := range got.Tasks() {
		if w := want.Tasks()[i]; task.ID != w.ID || task.JobID != 1 {
			t.Fatalf("task %d is %s of job %d, want %s of job 1", i, task.ID, task.JobID, w.ID)
		}
	}
}

// TestStaleClampPastDeadlineIs400: a virtual-mode submission whose arrival
// lies behind the engine's clock is clamped up to it; when that pushes the
// earliest start past the deadline the POST is malformed (400) and takes
// no ID, as when the engine rebuilt the job from the clamped spec.
func TestStaleClampPastDeadlineIs400(t *testing.T) {
	cfg := testShardConfig()
	cfg.Shards = 1
	cfg.Base.Policy = "fifo"
	cfg.Base.Admission = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	h := NewHandler(r)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		return rec
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if rec := post(`{"deadlineMs":100000,"mapExecMs":[1000]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("first POST: status %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.Engine(0).NowMS() < 1_000 {
		if time.Now().After(deadline) {
			t.Fatalf("virtual clock stuck at %d ms", r.Engine(0).NowMS())
		}
		time.Sleep(time.Millisecond)
	}
	// Feasible as sent (a 100 ms task in a 500 ms window), empty once the
	// arrival is clamped to the clock at 1000 ms or later.
	rec := post(`{"arrivalMs":0,"deadlineMs":500,"mapExecMs":[100]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("stale POST: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if n := r.Metrics().Submitted; n != 1 {
		t.Fatalf("%d submissions recorded, want 1: the refused one must take no ID", n)
	}
}

// maxAllocsPerSubmit bounds what one accepted Router.Submit allocates with
// telemetry off: the 119 measured on linux/amd64 with go1.24, with or
// without -race. While the router
// built its route event's fields before the telemetry check, the same
// Submit made one allocation more.
const maxAllocsPerSubmit = 119

// TestSubmitRouteEventOnlyWithTelemetry: with telemetry off, Submit pays
// nothing for the route event; with a sink, the event carries the job's
// global ID, its shard, the feasible shard count and the shard's pending
// work, in that order.
func TestSubmitRouteEventOnlyWithTelemetry(t *testing.T) {
	spec := workload.SpecOf(shardStream(t, 1)[0])
	cfg := testShardConfig()
	cfg.Base.Policy = "fifo"
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Submit(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Submit", allocs)
	if allocs > maxAllocsPerSubmit {
		t.Fatalf("a Submit with telemetry off allocates %.0f times, limit %d", allocs, maxAllocsPerSubmit)
	}

	sink := &obs.MemorySink{}
	cfg.Base.Telemetry = obs.New(sink)
	r, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	gid, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var route *obs.Event
	for _, ev := range sink.Events() {
		if ev.Layer == obs.LayerShard && ev.Kind == "route" {
			route = &ev
		}
	}
	if route == nil {
		t.Fatal("no shard/route event")
	}
	s := gid % int64(cfg.Shards)
	want := []obs.Field{obs.I64("job", gid), obs.I64("shard", s),
		obs.I64("feasible", int64(cfg.Shards)), obs.I64("workMs", r.engines[s].PendingWork())}
	if !reflect.DeepEqual(route.Fields, want) {
		t.Fatalf("route fields %+v, want %+v", route.Fields, want)
	}
}
