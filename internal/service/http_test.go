package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), Admission: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(engineHandler(e))
	defer ts.Close()

	var health map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != 200 {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	if health["mode"] != "virtual" || health["running"] != false {
		t.Fatalf("healthz %+v", health)
	}

	wcfg := workload.DefaultSynthetic()
	wcfg.NumResources = 4
	jobs, err := wcfg.Generate(5, stats.NewStream(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", workload.SpecOf(j))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
	}

	// Malformed JSON and unknown fields are 400s.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: %d", resp.StatusCode)
	}

	// A provably infeasible job is a 422 and stays queryable as rejected.
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		workload.JobSpec{DeadlineMS: 10, MapExecMS: []int64{500_000_000}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible submit: %d %s", resp.StatusCode, body)
	}
	var rej struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}

	var list []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list) != len(jobs)+1 {
		t.Fatalf("listed %d jobs, want %d", len(list), len(jobs)+1)
	}

	if resp := getJSON(t, ts.URL+"/v1/schedule", &[]TaskPlacement{}); resp.StatusCode != 200 {
		t.Fatalf("schedule %d", resp.StatusCode)
	}

	resp, body = postJSON(t, ts.URL+"/v1/admin/run", map[string]bool{"close": true})
	if resp.StatusCode != 200 {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	select {
	case <-e.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish")
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}

	var st JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, jobs[0].ID), &st)
	if st.State != StateCompleted {
		t.Fatalf("job 0 state %s", st.State)
	}
	if len(st.Placements) != jobs[0].NumTasks() {
		t.Fatalf("job 0 has %d placements, want %d", len(st.Placements), jobs[0].NumTasks())
	}
	var rejSt JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, rej.ID), &rejSt)
	if rejSt.State != StateRejected {
		t.Fatalf("rejected job state %s", rejSt.State)
	}

	var snap Snapshot
	getJSON(t, ts.URL+"/v1/metrics", &snap)
	if snap.JobsCompleted != len(jobs) || snap.Rejected != 1 || !snap.Finished {
		t.Fatalf("metrics %+v", snap)
	}
	if snap.Manager == nil || snap.Manager.Rounds == 0 {
		t.Fatalf("manager stats missing: %+v", snap.Manager)
	}

	// Closed intake rejects further submissions with 503.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", workload.SpecOf(jobs[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

func TestHTTPFaultInjection(t *testing.T) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(engineHandler(e))
	defer ts.Close()

	// Outage window on resource 0, starting immediately.
	resp, body := postJSON(t, ts.URL+"/v1/admin/faults",
		map[string]any{"resource": 0, "durationMs": 5000})
	if resp.StatusCode != 200 {
		t.Fatalf("outage: %d %s", resp.StatusCode, body)
	}
	// Swap in a straggler-only plan over the API.
	resp, body = postJSON(t, ts.URL+"/v1/admin/faults",
		map[string]any{"stragglerProb": 0.2, "seed": 7})
	if resp.StatusCode != 200 {
		t.Fatalf("plan: %d %s", resp.StatusCode, body)
	}
	// An invalid outage (unknown resource) is a 400.
	resp, _ = postJSON(t, ts.URL+"/v1/admin/faults",
		map[string]any{"resource": 99, "durationMs": 1000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad outage: %d", resp.StatusCode)
	}

	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", workload.JobSpec{
			DeadlineMS: 3_600_000, MapExecMS: []int64{2000, 2000}, ReduceExecMS: []int64{1000}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
	}
	postJSON(t, ts.URL+"/v1/admin/run", map[string]bool{"close": true})
	select {
	case <-e.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish")
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/v1/metrics", &snap)
	if snap.Outages < 1 {
		t.Fatalf("no outage recorded: %+v", snap)
	}
	if snap.JobsCompleted != 4 {
		t.Fatalf("completed %d, want 4", snap.JobsCompleted)
	}
}
