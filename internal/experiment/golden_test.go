package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFigureGolden pins every figure's clock-free columns: each Registry
// experiment runs once at tinyOptions under the deterministic manager
// configuration (a node budget, no wall-clock limit), and each point's
// labels, replication count and T, P, N, Failed and Abandoned summaries
// must match testdata/figures.golden. O is wall time and stays out. A
// refactor of how figures are assembled must leave this file unchanged.
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure")
	}
	opts := tinyOptions()
	opts.ManagerConfig = core.DeterministicConfig()
	var got bytes.Buffer
	late, failed := 0, 0
	for _, spec := range Registry {
		if spec.ID == "fig3" {
			continue // fig2 and fig3 are two views of one run
		}
		r, err := spec.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		for _, p := range r.Points {
			if p.P.Mean > 0 {
				late++
			}
			if p.Failed.Mean > 0 {
				failed++
			}
			fmt.Fprintf(&got, "%s|%s|%s|%g|%s|reps=%d|T=%s|P=%s|N=%s|failed=%s|abandoned=%s\n",
				r.ID, r.Title, p.Factor, p.FactorValue, p.Manager, p.Reps,
				exact(p.T), exact(p.P), exact(p.N), exact(p.Failed), exact(p.Abandoned))
		}
	}
	if late == 0 || failed == 0 {
		t.Fatalf("golden covers %d points with late jobs and %d with failed attempts; need both", late, failed)
	}
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figures differ from %s (rerun with -update after an intended change)\n--- got ---\n%s", path, got.Bytes())
	}
}

// exact prints every field of a summary at full float64 precision
// (Summary.String rounds to four digits).
func exact(s stats.Summary) string {
	return fmt.Sprintf("{n=%d mean=%g sd=%g min=%g max=%g}", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}
