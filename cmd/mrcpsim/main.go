// Command mrcpsim runs one open-system simulation: a workload (Table 3
// synthetic or Table 4 Facebook) against a cluster under any registered
// resource-management policy, and prints the paper's metrics.
//
// Usage:
//
//	mrcpsim                              # Table 3 defaults under MRCP-RM
//	mrcpsim -rm minedf                   # same workload, baseline manager
//	mrcpsim -rm edf                      # greedy deadline-ordered baseline
//	mrcpsim -workload facebook -jobs 200 -lambda 0.0003
//	mrcpsim -emax 100 -dul 2 -jobs 500 -v
//	mrcpsim -failrate 0.05 -straggler 0.02 -mtbf 20000 -mttr 120
//	mrcpsim -hetero 2                    # half the machines at half speed
//	mrcpsim -memcap 64 -memlo 1 -memhi 16  # memory as a second dimension
//	mrcpsim -telemetry run.jsonl          # stream telemetry events, then: obsreport run.jsonl
//	mrcpsim -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mrcprm"
	"mrcprm/internal/cli"
)

func main() {
	common := cli.New(cli.WithSeed(1), cli.WithTelemetry(), cli.WithProfiling())
	var (
		rmName = flag.String("rm", "mrcp",
			"resource manager: "+strings.Join(mrcprm.PolicyNames(), ", "))
		wl       = flag.String("workload", "synthetic", "workload: synthetic or facebook")
		jobs     = flag.Int("jobs", 300, "number of jobs")
		emax     = flag.Int64("emax", 50, "synthetic: max map task execution time (s)")
		p        = flag.Float64("p", 0.5, "synthetic: probability of a future earliest start time")
		smax     = flag.Int64("smax", 50000, "synthetic: max earliest start offset (s)")
		dul      = flag.Float64("dul", 0, "deadline multiplier upper bound (0 = workload default: 5 synthetic, 2 facebook)")
		lambda   = flag.Float64("lambda", 0, "arrival rate jobs/s (0 = workload default)")
		m        = flag.Int("m", 0, "number of resources (0 = workload default)")
		cmp      = flag.Int64("cmp", 2, "map slots per resource (synthetic)")
		crd      = flag.Int64("crd", 2, "reduce slots per resource (synthetic)")
		verb     = flag.Bool("v", false, "print per-job outcomes")
		traceOut = flag.String("trace", "", "write the executed schedule to this file (.csv or .json)")
		gantt    = flag.Bool("gantt", false, "print an ASCII gantt of the executed schedule")

		failRate  = flag.Float64("failrate", 0, "probability a task attempt fails mid-execution")
		straggler = flag.Float64("straggler", 0, "probability a task attempt runs 1.5-3x slow")
		mtbf      = flag.Float64("mtbf", 0, "mean time between resource outages (s, 0 = no outages)")
		mttr      = flag.Float64("mttr", 60, "mean time to repair a down resource (s)")
		faultSeed = flag.Uint64("faultseed", 0, "fault plan seed (0 = derive from -seed)")

		warmStart = flag.Bool("warmstart", false, "mrcp: seed each reschedule from the installed timetable")

		hetero    = flag.Float64("hetero", 1, "speed spread: second half of the machines run at 1/spread speed (1 = uniform)")
		memCap    = flag.Int64("memcap", 0, "per-machine memory capacity (0 = memory dimension off)")
		taskMemLo = flag.Int64("memlo", 0, "synthetic: per-task memory demand lower bound (needs -memcap)")
		taskMemHi = flag.Int64("memhi", 0, "synthetic: per-task memory demand upper bound (needs -memcap)")
	)
	common.Parse()
	defer common.Close()

	rng := mrcprm.NewStream(common.Seed, 0xfeed)
	var jl []*mrcprm.Job
	var cluster mrcprm.Cluster
	var err error

	switch *wl {
	case "synthetic":
		cfg := mrcprm.DefaultSyntheticWorkload()
		cfg.EmaxSec = *emax
		cfg.P = *p
		cfg.SmaxSec = *smax
		if *dul > 0 {
			cfg.DeadlineUL = *dul
		}
		if *lambda > 0 {
			cfg.Lambda = *lambda
		}
		if *m > 0 {
			cfg.NumResources = *m
		}
		cfg.MapSlotsPerResource = *cmp
		cfg.ReduceSlotsPerResource = *crd
		cfg.TaskMemLo = *taskMemLo
		cfg.TaskMemHi = *taskMemHi
		cluster = mrcprm.Cluster{NumResources: cfg.NumResources,
			MapSlots: cfg.MapSlotsPerResource, ReduceSlots: cfg.ReduceSlotsPerResource}
		jl, err = cfg.Generate(*jobs, rng)
	case "facebook":
		cfg := mrcprm.DefaultFacebookWorkload()
		cfg.NumJobs = *jobs
		if *dul > 0 {
			cfg.DeadlineUL = *dul
		}
		if *lambda > 0 {
			cfg.Lambda = *lambda
		}
		if *m > 0 {
			cfg.NumResources = *m
		}
		cluster = mrcprm.Cluster{NumResources: cfg.NumResources, MapSlots: 1, ReduceSlots: 1}
		jl, err = cfg.Generate(rng)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// -hetero/-memcap rebuild the same-shaped cluster through the
	// declarative spec: a two-class speed profile and/or a memory dimension.
	if *hetero > 1 || *memCap > 0 {
		spec := mrcprm.TwoClassCluster(cluster.NumResources, cluster.MapSlots, cluster.ReduceSlots, *hetero)
		spec.MemCapacity = *memCap
		cluster, err = spec.Cluster()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// Policies come from the registry; -rm selects by name. MRCP-RM's
	// policy-specific config rides along in Extra (other factories ignore it).
	if *warmStart && *rmName != "mrcp" {
		fmt.Fprintln(os.Stderr, "-warmstart needs -rm mrcp")
		os.Exit(2)
	}
	mcfg := mrcprm.DefaultConfig()
	mcfg.WarmStart = *warmStart
	rm, err := mrcprm.NewPolicy(*rmName, cluster, mrcprm.PolicyOptions{Extra: mcfg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var injector mrcprm.FaultInjector
	faulty := *failRate > 0 || *straggler > 0 || *mtbf > 0
	if faulty {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = common.Seed ^ 0xfa170000
		}
		fcfg := mrcprm.FaultConfig{
			TaskFailureProb: *failRate,
			StragglerProb:   *straggler,
			Seed1:           fseed,
			Seed2:           0xfa17,
		}
		if *mtbf > 0 {
			// Cover the whole run: outages can strike until well past the
			// last deadline in the workload.
			var horizon int64
			for _, j := range jl {
				if j.Deadline > horizon {
					horizon = j.Deadline
				}
			}
			fcfg.MTBFMs = *mtbf * 1000
			fcfg.MTTRMs = *mttr * 1000
			fcfg.OutageHorizonMs = 2 * horizon
			fcfg.NumResources = cluster.NumResources
		}
		injector, err = mrcprm.NewFaultPlan(fcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var rec *mrcprm.TraceRecorder
	if *traceOut != "" || *gantt {
		rec = mrcprm.NewTraceRecorder()
	}
	metrics, err := mrcprm.SimulateInstrumented(cluster, rm, jl, injector, rec, common.Telemetry())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("manager    : %s\n", rm.Name())
	fmt.Printf("workload   : %s (%d jobs)\n", *wl, len(jl))
	fmt.Printf("cluster    : m=%d, %d map + %d reduce slots each\n",
		cluster.NumResources, cluster.MapSlots, cluster.ReduceSlots)
	if cluster.Heterogeneous() || cluster.MemCapacity > 0 {
		fmt.Printf("hetero     : speeds %.3g..%.3g, mem capacity %d\n",
			cluster.MinSpeed(), cluster.MaxSpeed(), cluster.MemCapacity)
	}
	fmt.Printf("N (late)   : %d\n", metrics.N())
	fmt.Printf("P          : %.2f%%\n", 100*metrics.P())
	fmt.Printf("T          : %.1f s\n", metrics.T())
	fmt.Printf("O          : %.4f s/job (%d scheduling rounds)\n", metrics.O(), metrics.Invocations)
	fmt.Printf("makespan   : %.1f s\n", float64(metrics.MakespanMS)/1000)

	if faulty {
		fmt.Printf("faults     : %d failed, %d killed, %d retried, %d jobs abandoned\n",
			metrics.TasksFailed, metrics.TasksKilled, metrics.TasksRetried, metrics.JobsAbandoned)
		fmt.Printf("outages    : %d (%.1f s downtime), %.1f slot-s wasted\n",
			metrics.Outages, float64(metrics.DowntimeMS)/1000, float64(metrics.WastedSlotMS)/1000)
	}

	if mgr, ok := rm.(*mrcprm.Manager); ok {
		st := mgr.Stats()
		fmt.Printf("mrcp-rm    : %d solves, %d nodes, %d deferred\n",
			st.Rounds, st.SolverNodes, st.Deferred)
		if faulty {
			fmt.Printf("recovery   : %d task retries, %d jobs abandoned\n",
				st.TaskRetries, st.JobsAbandoned)
		}
	}

	fmt.Printf("map util   : %.1f%%  reduce util: %.1f%%  active: %.1f resource-hours\n",
		100*metrics.MapUtilization(cluster), 100*metrics.ReduceUtilization(cluster),
		float64(metrics.ResourceActiveMS)/3_600_000)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if strings.HasSuffix(*traceOut, ".json") {
			err = rec.WriteJSON(f)
		} else {
			err = rec.WriteCSV(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace      : %d events -> %s\n", rec.Len(), *traceOut)
	}
	if *gantt {
		fmt.Println()
		for _, row := range rec.GanttRows(cluster, 100) {
			fmt.Println(row)
		}
	}

	if *verb {
		recs := append([]mrcprm.JobRecord(nil), metrics.Records...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].Job.ID < recs[j].Job.ID })
		fmt.Printf("\n%6s %10s %10s %10s %10s %6s\n", "job", "arrival", "start", "deadline", "done", "late")
		for _, r := range recs {
			late := ""
			if r.Late() {
				late = "LATE"
			}
			fmt.Printf("%6d %10.1f %10.1f %10.1f %10.1f %6s\n",
				r.Job.ID, s(r.Job.Arrival), s(r.Job.EarliestStart), s(r.Job.Deadline), s(r.Completion), late)
		}
	}
}

func s(ms int64) float64 { return float64(ms) / 1000 }
