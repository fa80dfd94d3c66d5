package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/slo"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// TestHTTPObservability drives a full virtual run with a live telemetry
// registry and checks the observability surface: the Prometheus scrape is
// well-formed and carries the expected histograms, per-job traces replay
// the lifecycle, and the JSON snapshot exposes the SLO burn state.
func TestHTTPObservability(t *testing.T) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	tel := obs.New(obs.DiscardSink{})
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(engineHandler(e))
	defer ts.Close()

	wcfg := workload.DefaultSynthetic()
	wcfg.NumResources = 4
	jobs, err := wcfg.Generate(6, stats.NewStream(3, 77))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", workload.SpecOf(j))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/admin/run", map[string]bool{"close": true}); resp.StatusCode != 200 {
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

	// The scrape must parse under the strict reader and agree with the run.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	scrape, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape.Values["mrcp_jobs_completed_total"]; got != float64(len(jobs)) {
		t.Fatalf("mrcp_jobs_completed_total = %v, want %d", got, len(jobs))
	}
	adm, ok := scrape.Hists["mrcp_wall_admission_ms"]
	if !ok {
		t.Fatalf("scrape lacks mrcp_wall_admission_ms; hists: %v", histNames(scrape))
	}
	if int(adm.Count) != len(jobs) {
		t.Fatalf("admission hist count %v, want %d", adm.Count, len(jobs))
	}
	e2e, ok := scrape.Hists["mrcp_job_e2e_ms"]
	if !ok {
		t.Fatalf("scrape lacks mrcp_job_e2e_ms; hists: %v", histNames(scrape))
	}
	if int(e2e.Count) != len(jobs) {
		t.Fatalf("e2e hist count %v, want %d", e2e.Count, len(jobs))
	}
	// The scraped e2e histogram must reconstruct into a snapshot whose
	// quantiles obey the one-bucket-width contract against the live one.
	snapHist, err := e2e.Snapshot("job_e2e_ms")
	if err != nil {
		t.Fatal(err)
	}
	var live obs.HistSnapshot
	for _, h := range tel.HistSnapshots() {
		if h.Name == obs.HistJobE2E {
			live = h
		}
	}
	if live.Count != snapHist.Count {
		t.Fatalf("scraped count %d != live count %d", snapHist.Count, live.Count)
	}
	for _, q := range []float64{0.5, 0.95} {
		lo, hi := live.Quantile(q)/sqrt2, live.Quantile(q)*sqrt2
		if got := snapHist.Quantile(q); got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("scraped p%v = %v outside [%v, %v]", q*100, got, lo, hi)
		}
	}

	// Traces: job 0 must have walked the submitted → placed → completed arc.
	var tr struct {
		JobID   int              `json:"jobId"`
		Dropped int              `json:"dropped"`
		Events  []slo.TraceEvent `json:"events"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d/trace", ts.URL, jobs[0].ID), &tr); resp.StatusCode != 200 {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	kinds := map[string]bool{}
	for _, ev := range tr.Events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{slo.KindSubmitted, slo.KindAdmitted, slo.KindPlaced, slo.KindCompleted} {
		if !kinds[want] {
			t.Fatalf("trace lacks %q: %+v", want, tr.Events)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/999/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d", resp.StatusCode)
	}

	// The JSON snapshot carries the burn block.
	var snap Snapshot
	getJSON(t, ts.URL+"/v1/metrics", &snap)
	if snap.SLO == nil || snap.SLO.WindowMS == 0 {
		t.Fatalf("snapshot lacks SLO burn state: %+v", snap.SLO)
	}
}

const sqrt2 = 1.4142135623730951

func histNames(s *obs.PromScrape) []string {
	var names []string
	for n := range s.Hists {
		names = append(names, n)
	}
	return names
}

// TestPromWithoutTelemetry checks the engine-derived exposition families
// are served even when no telemetry registry is attached.
func TestPromWithoutTelemetry(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, e.Metrics(), nil); err != nil {
		t.Fatal(err)
	}
	scrape, err := obs.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for _, want := range []string{"mrcp_jobs_submitted_total", "mrcp_sim_time_ms", "mrcp_slo_burning", "mrcp_slo_burn_rate"} {
		if _, ok := scrape.Values[want]; !ok {
			t.Fatalf("exposition lacks %s:\n%s", want, buf.String())
		}
	}
}

// TestReadyzSLOBurnFlip runs every job past an impossible deadline under a
// tight miss budget with the intake left open, so the burn monitor trips
// and stays tripped: /readyz must flip to 503 with the "slo-burn" reason,
// every miss must carry the infeasible-at-admission class, and the
// exposition must report the burning gauge.
func TestReadyzSLOBurnFlip(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	e, err := New(Config{
		Cluster: cluster,
		Manager: deterministicCfg(),
		SLO:     slo.Config{MissBudget: 0.05, WindowMS: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(engineHandler(e))
	defer ts.Close()

	// Exactly slo.MinSample finishes, the fewest that may trip the alarm.
	const n = slo.MinSample
	for i := 0; i < n; i++ {
		spec := workload.JobSpec{
			ArrivalMS:  int64(i * 10),
			DeadlineMS: int64(i*10) + 1, // unmeetable: the map alone runs 500ms
			MapExecMS:  []int64{500},
		}
		resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Intake stays open: the run loop idles after the stream drains, so the
	// burning state is stable to observe.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := e.Metrics()
		if snap.JobsCompleted+snap.JobsAbandoned >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if ok, reason := e.Metrics().Ready(); ok || reason != "slo-burn" {
		t.Fatalf("Ready() = %v %q, want false slo-burn", ok, reason)
	}
	var body map[string]any
	if resp := getJSON(t, ts.URL+"/readyz", &body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d %v", resp.StatusCode, body)
	} else if body["reason"] != "slo-burn" {
		t.Fatalf("readyz reason %v", body["reason"])
	}

	var snap Snapshot
	getJSON(t, ts.URL+"/v1/metrics", &snap)
	if snap.SLO == nil || !snap.SLO.Burning || snap.SLO.Missed < n {
		t.Fatalf("snapshot burn state %+v", snap.SLO)
	}
	var missed int64
	for class, cnt := range snap.MissByClass {
		if class != slo.ClassInfeasible {
			t.Fatalf("unexpected miss class %q in %v", class, snap.MissByClass)
		}
		missed += cnt
	}
	if missed != n {
		t.Fatalf("attributed %d misses, want %d (%v)", missed, n, snap.MissByClass)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if scrape.Values["mrcp_slo_burning"] != 1 {
		t.Fatalf("mrcp_slo_burning = %v", scrape.Values["mrcp_slo_burning"])
	}
	if scrape.Values["mrcp_slo_miss_"+slo.ClassInfeasible] != n {
		t.Fatalf("miss counter = %v", scrape.Values["mrcp_slo_miss_"+slo.ClassInfeasible])
	}

	e.CloseIntake()
	select {
	case <-e.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish after close")
	}
}
