package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/slo"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// faultedStream is a loaded 40-job stream on 4 resources and an MRCP-RM
// configuration that solves it quickly and abandons a job on the second
// failed attempt of one of its tasks.
func faultedStream(t *testing.T) ([]*workload.Job, sim.Cluster, core.Config) {
	t.Helper()
	gen := workload.DefaultSynthetic()
	gen.NumResources = 4
	gen.NumMapHi = 8
	gen.NumReduceHi = 4
	gen.Lambda = 0.1
	jobs, err := gen.Generate(40, stats.NewStream(21, 0xc0de))
	if err != nil {
		t.Fatal(err)
	}
	mcfg := deterministicCfg()
	mcfg.NodeLimit = 2000
	mcfg.Retry = rmkit.RetryPolicy{MaxTaskRetries: 1}
	return jobs, sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}, mcfg
}

// injectFaults installs a failure and straggler plan on e and takes
// resources 0 and 1 down for 40 s, a quarter and half way into jobs'
// arrivals.
func injectFaults(t *testing.T, e *Engine, jobs []*workload.Job) {
	t.Helper()
	if err := e.ApplyFaults(FaultSpec{FailRate: 0.05, StragglerProb: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	horizon := jobs[len(jobs)-1].Arrival
	for r, at := range []int64{horizon / 4, horizon / 2} {
		if _, _, err := e.InjectOutage(r, at, at+40_000); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSLOTraceGolden pins what the SLO monitor serves for one faulted
// virtual run: every job's GET /v1/jobs/{id}/trace body, then the slo and
// missByClass blocks of GET /v1/metrics. Failures and stragglers come from
// ApplyFaults, kills from two InjectOutage windows, one infeasible
// submission is shed with admission on and one is admitted with it off.
// The test fails unless the run reached every trace kind, both completion
// verdicts and all three attribution classes.
func TestSLOTraceGolden(t *testing.T) {
	jobs, cluster, mcfg := faultedStream(t)
	e, err := New(Config{Cluster: cluster, Manager: mcfg})
	if err != nil {
		t.Fatal(err)
	}
	injectFaults(t, e, jobs)
	horizon := jobs[len(jobs)-1].Arrival
	infeasible := workload.JobSpec{ArrivalMS: horizon / 3, DeadlineMS: horizon/3 + 10, MapExecMS: []int64{500}}
	e.cfg.Admission = true
	if _, err := e.Submit(infeasible); err == nil {
		t.Fatal("admission accepted an infeasible job")
	}
	e.cfg.Admission = false
	if _, err := e.Submit(infeasible); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := e.Submit(workload.SpecOf(j)); err != nil {
			t.Fatal(err)
		}
	}
	runToEnd(t, e)

	h := engineHandler(e)
	get := func(path string) []byte {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body)
		}
		return rr.Body.Bytes()
	}
	var got bytes.Buffer
	seen := map[string]bool{}
	n := e.Metrics().Submitted
	for id := 0; id < n; id++ {
		body := get(fmt.Sprintf("/v1/jobs/%d/trace", id))
		got.Write(body)
		var tr struct{ Events []slo.TraceEvent }
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tr.Events {
			seen[ev.Kind] = true
			if ev.Kind == slo.KindCompleted {
				seen[ev.Kind+"/"+ev.Detail] = true
			}
		}
	}
	var snap struct {
		SLO         json.RawMessage  `json:"slo"`
		MissByClass map[string]int64 `json:"missByClass"`
	}
	if err := json.Unmarshal(get("/v1/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	by, err := json.Marshal(snap.MissByClass)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "slo %s\nmissByClass %s\n", snap.SLO, by)

	for _, want := range []string{slo.KindPlaced, slo.KindReplanned, slo.KindTaskFail, slo.KindTaskKill,
		slo.KindTaskRetry, slo.KindStraggle, slo.KindCompleted + "/on_time", slo.KindCompleted + "/late",
		slo.KindAbandoned, slo.KindShed} {
		if !seen[want] {
			t.Errorf("no trace holds %s", want)
		}
	}
	for _, class := range []string{slo.ClassInfeasible, slo.ClassFaultDelay, slo.ClassQueuedBacklog} {
		if snap.MissByClass[class] == 0 {
			t.Errorf("no miss attributed to %s: %v", class, snap.MissByClass)
		}
	}

	path := filepath.Join("testdata", "slo_trace.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("traces and SLO blocks differ from %s (rerun with -update after an intended change)\n--- got ---\n%s", path, got.Bytes())
	}
}
