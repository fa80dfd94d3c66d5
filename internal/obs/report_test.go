package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestReportGolden(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	var got bytes.Buffer
	if err := WriteReport(in, &got); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}

	goldenPath := filepath.Join("testdata", "sample.golden")
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report differs from golden file (run `go test ./internal/obs -run Golden -update` after intentional changes)\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}

func TestReportContents(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	rep, err := ReadReport(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadLines != 1 {
		t.Errorf("BadLines = %d, want 1", rep.BadLines)
	}
	if rep.Reschedules != 3 || rep.Fallbacks != 1 {
		t.Errorf("reschedules/fallbacks = %d/%d, want 3/1", rep.Reschedules, rep.Fallbacks)
	}
	if rep.Solves != 2 {
		t.Errorf("Solves = %d, want 2", rep.Solves)
	}
	if len(rep.ModelTasks) != 2 || rep.ModelTasks[0] != 22 || rep.ModelTasks[1] != 36 {
		t.Errorf("ModelTasks = %v, want [22 36]", rep.ModelTasks)
	}
	if rep.WarmSolves != 1 || rep.WarmSeeded != 1 {
		t.Errorf("warm solves/seeded = %d/%d, want 1/1", rep.WarmSolves, rep.WarmSeeded)
	}
	if rep.Samples != 4 {
		t.Errorf("Samples = %d, want 4", rep.Samples)
	}
	if rep.Outstanding.peak != 6 {
		t.Errorf("outstanding peak = %v, want 6", rep.Outstanding.peak)
	}
	if rep.RunEnd == nil || rep.RunEnd["late_jobs"] != 1 {
		t.Errorf("run_end late_jobs = %v, want 1", rep.RunEnd)
	}
	// p50 of solve latencies {11.9, 204} by nearest rank is 11.9.
	if got := percentile(rep.SolveWallMS, 0.50); got != 11.9 {
		t.Errorf("p50 solve latency = %v, want 11.9", got)
	}
	if got := percentile(rep.SolveWallMS, 0.99); got != 204 {
		t.Errorf("p99 solve latency = %v, want 204", got)
	}
	if len(rep.Hists) != 3 {
		t.Errorf("Hists = %d entries, want 3: %v", len(rep.Hists), rep.Hists)
	}
	if h := rep.Hists["job_e2e_ms"]; h.Count != 6 || h.P50 != 9051 {
		t.Errorf("job_e2e_ms digest = %+v, want count 6 p50 9051", h)
	}
	// The wall_ histogram's value keys are wall_-prefixed in the stream;
	// the digest must normalize them.
	if h := rep.Hists["wall_solve_ms"]; h.Count != 2 || h.P90 != 204 {
		t.Errorf("wall_solve_ms digest = %+v, want count 2 p90 204", h)
	}
	if rep.Attributions != 1 || rep.AttrByClass["fault_delay"] != 1 || rep.AttrByOutcome["late"] != 1 {
		t.Errorf("attribution digest = %d %v %v, want 1 fault_delay late",
			rep.Attributions, rep.AttrByClass, rep.AttrByOutcome)
	}
}

func TestReportEmptyStream(t *testing.T) {
	var out bytes.Buffer
	if err := WriteReport(strings.NewReader(""), &out); err != nil {
		t.Fatalf("WriteReport on empty input: %v", err)
	}
	if !strings.Contains(out.String(), "0 events") {
		t.Errorf("empty-stream report missing event count: %q", out.String())
	}
}
