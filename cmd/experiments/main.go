// Command experiments regenerates the paper's evaluation figures (Figs
// 2-9) and the DESIGN.md ablations as text tables.
//
// Usage:
//
//	experiments -fig all                # every experiment at default size
//	experiments -fig 7                  # one figure
//	experiments -fig ablation-deferral  # one ablation
//	experiments -fig faults             # failure-rate robustness sweep
//	experiments -fig all -fast          # benchmark-sized quick pass
//	experiments -fig 2 -fbjobs 1000 -maxreps 10   # closer to paper scale
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mrcprm/internal/cli"
	"mrcprm/internal/experiment"
)

func main() {
	common := cli.New(cli.WithSeed(1), cli.WithTelemetry(), cli.WithProfiling())
	var (
		fig     = flag.String("fig", "all", "experiment id: all, 2..9, fig2..fig9, ablation-*, faults, or hetero")
		fast    = flag.Bool("fast", false, "use benchmark-sized options")
		jobs    = flag.Int("jobs", 0, "jobs per replication for synthetic experiments (0 = default)")
		fbjobs  = flag.Int("fbjobs", 0, "jobs for the Facebook workload (1000 = paper scale; 0 = default)")
		minreps = flag.Int("minreps", 0, "minimum replications (0 = default)")
		maxreps = flag.Int("maxreps", 0, "maximum replications (0 = default)")
		csvDir  = flag.String("csv", "", "also write one CSV per experiment into this directory")

		repWorkers = flag.Int("repworkers", 0, "concurrent replications per cell (0 = min(CPUs, 4); 1 = sequential)")
	)
	common.Parse()
	defer common.Close()

	opts := experiment.DefaultOptions()
	if *fast {
		opts = experiment.FastOptions()
	}
	opts.Seed = common.Seed
	if *jobs > 0 {
		opts.Jobs = *jobs
	}
	if *fbjobs > 0 {
		opts.FacebookJobs = *fbjobs
	}
	if *minreps > 0 {
		opts.Policy.MinReps = *minreps
	}
	if *maxreps > 0 {
		opts.Policy.MaxReps = *maxreps
	}
	opts.ReplicationWorkers = *repWorkers
	opts.Telemetry = common.Telemetry()

	ids := resolveIDs(*fig)
	if len(ids) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", *fig)
		for _, s := range experiment.Registry {
			fmt.Fprintf(os.Stderr, " %s", s.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	// fig2 and fig3 are two views of one Facebook sweep; run it once.
	aliases := map[string]string{"fig2": "fig3", "fig3": "fig2"}
	seen := map[string]bool{}
	for _, id := range ids {
		spec, _ := experiment.ByID(id)
		if seen[spec.ID] {
			continue
		}
		seen[spec.ID] = true
		if alias, ok := aliases[spec.ID]; ok {
			seen[alias] = true
		}
		fmt.Printf("running %s: %s ...\n", spec.ID, spec.Title)
		res, err := spec.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", spec.ID, err)
			os.Exit(1)
		}
		fmt.Println(res.Table())
		fmt.Printf("(elapsed %v)\n\n", res.Elapsed.Round(1e7))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, spec.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			err = res.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}

func resolveIDs(arg string) []string {
	if arg == "all" {
		seen := map[string]bool{}
		var ids []string
		for _, s := range experiment.Registry {
			if !seen[s.ID] {
				seen[s.ID] = true
				ids = append(ids, s.ID)
			}
		}
		return ids
	}
	var out []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if _, ok := experiment.ByID(part); !ok &&
			!strings.HasPrefix(part, "fig") && !strings.HasPrefix(part, "ablation") {
			part = "fig" + part
		}
		if _, ok := experiment.ByID(part); ok {
			out = append(out, part)
		} else {
			return nil
		}
	}
	return out
}
