package mrcprm_test

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"

	"mrcprm"
	"mrcprm/internal/obs"
)

// telemetryWorkload builds a small seeded scenario shared by the telemetry
// tests.
func telemetryWorkload(t *testing.T) (mrcprm.Cluster, []*mrcprm.Job) {
	t.Helper()
	cfg := mrcprm.DefaultSyntheticWorkload()
	cfg.NumResources = 20
	jobs, err := cfg.Generate(30, mrcprm.NewStream(7, 0xfeed))
	if err != nil {
		t.Fatal(err)
	}
	cluster := mrcprm.Cluster{NumResources: cfg.NumResources,
		MapSlots: cfg.MapSlotsPerResource, ReduceSlots: cfg.ReduceSlotsPerResource}
	return cluster, jobs
}

// deterministicConfig removes the wall-clock solve budget: with a
// node-limit-only budget every search decision is a pure function of the
// model, so the telemetry stream is reproducible bit for bit. The node
// limit is kept small so the tests stay fast.
func deterministicConfig() mrcprm.Config {
	cfg := mrcprm.DefaultConfig()
	cfg.SolveTimeLimit = 0
	cfg.NodeLimit = 3000
	return cfg
}

func runInstrumented(t *testing.T, tel *mrcprm.Telemetry) *mrcprm.Metrics {
	t.Helper()
	cluster, jobs := telemetryWorkload(t)
	m, err := mrcprm.SimulateInstrumented(cluster,
		mrcprm.NewManager(cluster, deterministicConfig()), jobs, nil, nil, tel)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wallFields matches the wall-clock-derived fields ("wall_" key prefix by
// convention); they are the only nondeterministic bytes in the stream.
var wallFields = regexp.MustCompile(`,"wall_[a-z0-9_]+":(null|-?[0-9][0-9.eE+-]*)`)

// TestTelemetryDeterministic runs the same seeded scenario twice and
// requires the two JSONL streams to be byte-identical once wall-clock
// fields are stripped.
func TestTelemetryDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		runInstrumented(t, mrcprm.NewJSONLTelemetry(&buf))
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no telemetry emitted")
	}
	sa := wallFields.ReplaceAll(a, nil)
	sb := wallFields.ReplaceAll(b, nil)
	// Histogram names like "wall_solve_ms" appear as string *values* and are
	// deterministic; only a surviving wall_ *key* means the pattern is stale.
	if wallKey := regexp.MustCompile(`"wall_[a-z0-9_]+":`); wallKey.Match(sa) {
		t.Fatal("wall_ field survived stripping; fix the wallFields pattern")
	}
	if !bytes.Equal(sa, sb) {
		la, lb := bytes.Split(sa, []byte("\n")), bytes.Split(sb, []byte("\n"))
		for i := range la {
			if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("telemetry streams diverge at line %d:\n  run1: %s\n  run2: %s",
					i+1, la[i], lb[i])
			}
		}
		t.Fatal("telemetry streams differ in length")
	}
}

// TestTelemetryDoesNotPerturbSimulation requires the simulation outcome
// with telemetry attached to be bit-identical to an uninstrumented run.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	var buf bytes.Buffer
	on := runInstrumented(t, mrcprm.NewJSONLTelemetry(&buf))
	off := runInstrumented(t, nil)
	if buf.Len() == 0 {
		t.Fatal("no telemetry emitted in the instrumented run")
	}
	if on.Fingerprint() != off.Fingerprint() {
		t.Fatalf("metrics fingerprints differ: telemetry on %x, off %x",
			on.Fingerprint(), off.Fingerprint())
	}
}

// TestTelemetryStreamShape checks that every line is valid JSON with the
// envelope fields and that all three layers report.
func TestTelemetryStreamShape(t *testing.T) {
	var buf bytes.Buffer
	runInstrumented(t, mrcprm.NewJSONLTelemetry(&buf))

	layers := map[string]int{}
	kinds := map[string]int{}
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if _, ok := ev["t"].(float64); !ok {
			t.Fatalf("line %d has no numeric t: %s", i+1, line)
		}
		layer, _ := ev["layer"].(string)
		kind, _ := ev["kind"].(string)
		if layer == "" || kind == "" {
			t.Fatalf("line %d missing layer/kind: %s", i+1, line)
		}
		layers[layer]++
		kinds[layer+"/"+kind]++
	}
	for _, l := range []string{"solver", "manager", "sim"} {
		if layers[l] == 0 {
			t.Errorf("no events from layer %q: %v", l, layers)
		}
	}
	for _, k := range []string{"manager/reschedule", "solver/solve", "sim/sample", "sim/run_end", "obs/hist"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events: %v", k, kinds)
		}
	}

	rep, err := obs.ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadLines != 0 || rep.Reschedules == 0 || rep.Solves == 0 || rep.Samples == 0 {
		t.Errorf("report did not digest the stream: %+v", rep)
	}
	// The end-of-run summary carries the streaming-histogram digests: every
	// completed job observed into the sim-time end-to-end and lateness
	// histograms, every solve into the wall-clock solve histogram.
	for _, name := range []string{"job_e2e_ms", "job_lateness_ms", "wall_solve_ms"} {
		if rep.Hists[name].Count == 0 {
			t.Errorf("no %s histogram digest: %v", name, rep.Hists)
		}
	}
	if n := int(rep.Hists["job_e2e_ms"].Count); n != int(rep.RunEnd["jobs_completed"]) {
		t.Errorf("e2e histogram count %d != %v completed jobs", n, rep.RunEnd["jobs_completed"])
	}
}

// TestTelemetryDisabledIsInert: a nil telemetry handle must be safe to use
// through the whole public path.
func TestTelemetryDisabledIsInert(t *testing.T) {
	var tel *mrcprm.Telemetry
	if tel.Enabled() {
		t.Fatal("nil telemetry reports Enabled")
	}
	// The histogram surface must be inert too: observing into and
	// snapshotting a disabled handle is a no-op, not a panic.
	tel.Observe("job_e2e_ms", 123)
	if h := tel.Hist("job_e2e_ms"); h != nil {
		t.Fatal("nil telemetry returned a live histogram")
	}
	if hs := tel.HistSnapshots(); len(hs) != 0 {
		t.Fatalf("nil telemetry returned %d histogram snapshots", len(hs))
	}
	m := runInstrumented(t, nil)
	if m.N() != 0 && m.Records == nil {
		t.Fatal("simulation did not run")
	}
}
