package faults

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAttemptGolden pins the fate of 250 (task, attempt) pairs bit for bit:
// whether each attempt fails, and the IEEE bits of its fail point and
// straggler factor. Any change to the draw order, the ranges or the
// arithmetic that maps a uniform draw into them moves a line here.
func TestAttemptGolden(t *testing.T) {
	p, err := New(Config{TaskFailureProb: 0.2, StragglerProb: 0.2, Seed1: 11, Seed2: 23})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fails, straggles := 0, 0
	for job := 0; job < 10; job++ {
		for _, id := range []string{"m1", "m2", "m3", "r1", "r2"} {
			task := fmt.Sprintf("t%d_%s", job, id)
			for k := 0; k < 5; k++ {
				f := p.Attempt(task, k)
				if f.Fails {
					fails++
				}
				if f.Factor > 1 {
					straggles++
				}
				fmt.Fprintf(&got, "%s %d %t %016x %016x\n", task, k, f.Fails,
					math.Float64bits(f.FailPoint), math.Float64bits(f.Factor))
			}
		}
	}
	if fails == 0 || straggles == 0 {
		t.Fatalf("golden covers %d failed and %d straggling attempts; need both", fails, straggles)
	}
	path := filepath.Join("testdata", "attempt.golden")
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
		t.Errorf("attempt fates differ from %s (rerun with -update after an intended change)\n--- got ---\n%s", path, got.Bytes())
	}
}
