package cli

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestOptionsRegisterFlags(t *testing.T) {
	newSet := func() (*flag.FlagSet, *Common) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs, register(fs, WithSeed(7), WithTelemetry(), WithProfiling())
	}
	fs, c := newSet()
	if err := fs.Parse([]string{"-seed", "42", "-telemetry", "t.jsonl"}); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 42 || c.TelemetryPath != "t.jsonl" {
		t.Fatalf("parsed %+v", c)
	}
	// The shared surface is exactly this set (VisitAll is name-sorted): a
	// flag added to or dropped from it must be a deliberate edit here.
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"cpuprofile", "memprofile", "pprof", "seed",
		"telemetry", "telemetrysample", "version"}
	if !slices.Equal(got, want) {
		t.Fatalf("registered flags %v, want %v", got, want)
	}
	fs, _ = newSet()
	if err := fs.Parse([]string{"-workers", "3"}); err == nil {
		t.Fatal("-workers parsed; it is not a shared flag")
	}
}

func TestSeedDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := &Common{}
	WithSeed(7)(c, fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 7 {
		t.Fatalf("seed default %d, want 7", c.Seed)
	}
}

func TestVersionString(t *testing.T) {
	v := Version()
	if !strings.HasPrefix(v, "mrcprm ") {
		t.Fatalf("version %q lacks the module prefix", v)
	}
	if !strings.Contains(v, "go1") && !strings.Contains(v, "no build info") {
		t.Fatalf("version %q lacks the Go toolchain stamp", v)
	}
}
