// Command mrcpd is the online scheduling daemon: it accepts MapReduce job
// submissions with SLAs over an HTTP/JSON API and schedules them with
// MRCP-RM (or a baseline manager) on a simulated cluster.
//
// Two clock modes:
//
//   - -mode wall (default): the daemon behaves like a live scheduler —
//     submissions are stamped with their wall-clock arrival (scaled by
//     -speedup) and the schedule executes in real time.
//   - -mode virtual: submissions accumulate until POST /v1/admin/run, then
//     the whole stream executes in virtual time under pinned solver
//     settings (DeterministicConfig: no time limit, a node budget). A
//     virtual run over a recorded stream is deterministic and
//     byte-comparable to the offline simulator (see cmd/loadgen).
//
// One backend: the daemon always serves the shard router. -shards N
// (default 1) partitions the cluster into N engines behind it (-routeseed
// breaks load ties); a job is routed once, at submission, and its ID
// modulo N names its shard for good. An unsharded daemon is the N=1
// router, with the same journal layout, fingerprint fold and telemetry.
//
// Durability: -journal base appends every accepted submission, fault
// switch, and outage to shard i's write-ahead journal segment base.shard<i>
// before acknowledging it; after a crash, -recover replays every segment
// into fresh engines and finishes the stream, and refuses to start when a
// segment is missing. A recovered virtual run's final metrics fingerprint
// is bit-identical to the uninterrupted run's. -maxpending bounds the
// intake (split across shards): excess submissions get 429 with a
// Retry-After derived from the recent drain rate.
//
// Observability: GET /metrics serves Prometheus text exposition (latency
// and end-to-end histograms, job-flow counters, SLO burn gauges) backed by
// one always-on in-process registry the router and every engine share;
// -telemetry additionally streams their JSONL events (digest with
// obsreport). GET /v1/jobs/{id}/trace replays one job's lifecycle
// timeline; /readyz flips to 503 "slo-burn" while the deadline-miss rate
// exceeds -missbudget over the -slowindow window.
//
// API: POST /v1/jobs, GET /v1/jobs[/{id}[/trace]], GET /v1/schedule,
// GET /v1/metrics, GET /metrics, POST /v1/admin/faults, POST /v1/admin/run,
// GET /healthz, GET /readyz.
//
// Usage:
//
//	mrcpd                                  # wall clock, :8373, 10 resources
//	mrcpd -mode virtual -addr :9000 -m 50
//	mrcpd -speedup 60 -warmstart
//	mrcpd -rm minedf -admission=false
//	mrcpd -hetero 2 -memcap 64             # two speed classes + memory dimension
//	mrcpd -mode virtual -journal run.wal   # writes run.wal.shard0
//	mrcpd -mode virtual -journal run.wal -recover
//	mrcpd -mode virtual -shards 2 -journal run.wal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mrcprm"
	"mrcprm/internal/cli"
)

func main() {
	common := cli.New(cli.WithTelemetry(), cli.WithProfiling())
	var (
		addr    = flag.String("addr", ":8373", "HTTP listen address")
		mode    = flag.String("mode", "wall", "clock mode: wall or virtual")
		speedup = flag.Float64("speedup", 1, "wall mode: simulated ms per wall ms")
		m       = flag.Int("m", 10, "number of resources")
		cmp     = flag.Int64("cmp", 2, "map slots per resource")
		crd     = flag.Int64("crd", 2, "reduce slots per resource")
		hetero  = flag.Float64("hetero", 1, "speed spread: second half of the machines run at 1/spread speed (1 = uniform)")
		memCap  = flag.Int64("memcap", 0, "per-machine memory capacity (0 = memory dimension off)")

		rmName = flag.String("rm", "mrcp",
			"resource manager: "+strings.Join(mrcprm.PolicyNames(), ", "))
		listPolicies = flag.Bool("listpolicies", false, "print registered policy names and exit")

		admission = flag.Bool("admission", true, "reject provably infeasible submissions")
		deferral  = flag.Duration("deferral", 30*time.Second, "park jobs whose earliest start is further away than this (0 = off)")
		warmStart = flag.Bool("warmstart", false, "seed each reschedule from the installed timetable")

		drainTimeout = flag.Duration("draintimeout", time.Minute, "max time to finish outstanding work on SIGTERM")

		journal     = flag.String("journal", "", "write-ahead journal path (empty = no durability)")
		journalSync = flag.String("journalsync", "always", "journal fsync policy: always, batch, or none")
		doRecover   = flag.Bool("recover", false, "replay the -journal into a fresh engine before serving")
		maxPending  = flag.Int("maxpending", 0, "shed submissions beyond this many accepted-but-unfinished jobs (0 = unbounded)")

		missBudget = flag.Float64("missbudget", 0.1, "SLO miss budget: the deadline-miss rate that flips /readyz to slo-burn")
		sloWindow  = flag.Duration("slowindow", time.Minute, "simulated-time window for the SLO burn monitor")

		shards    = flag.Int("shards", 1, "partition the cluster into this many shards, each with its own engine, behind an admission router")
		routeSeed = flag.Uint64("routeseed", 1, "seed for the router's deterministic placement tie-break")
	)
	common.Parse()
	defer common.Close()

	if *listPolicies {
		fmt.Println(strings.Join(mrcprm.PolicyNames(), "\n"))
		return
	}

	cluster := mrcprm.Cluster{NumResources: *m, MapSlots: *cmp, ReduceSlots: *crd}
	if *hetero > 1 || *memCap > 0 {
		spec := mrcprm.TwoClassCluster(*m, *cmp, *crd, *hetero)
		spec.MemCapacity = *memCap
		var err error
		cluster, err = spec.Cluster()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// A virtual run is the replayable one: it pins the solver settings that
	// a wall-clock time limit would otherwise make vary run to run.
	var svcMode mrcprm.ServiceMode
	mcfg := mrcprm.DefaultConfig()
	switch *mode {
	case "wall":
		svcMode = mrcprm.ServiceWall
	case "virtual":
		svcMode = mrcprm.ServiceVirtual
		mcfg = mrcprm.DeterministicConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	mcfg.DeferralLead = *deferral
	mcfg.WarmStart = *warmStart

	// Without -telemetry the daemon still keeps a registry-only handle
	// (counters, gauges, histograms; no event stream) so GET /metrics has
	// real histograms to serve.
	tel := common.Telemetry()
	if tel == nil {
		tel = mrcprm.NewRegistryTelemetry()
	}
	cfg := mrcprm.ServiceConfig{
		Cluster:     cluster,
		Policy:      *rmName,
		Manager:     mcfg,
		Mode:        svcMode,
		Speedup:     *speedup,
		Admission:   *admission,
		Telemetry:   tel,
		JournalPath: *journal,
		JournalSync: *journalSync,
		MaxPending:  *maxPending,
		SLO:         mrcprm.SLOConfig{MissBudget: *missBudget, WindowMS: sloWindow.Milliseconds()},
	}

	if *doRecover && *journal == "" {
		fmt.Fprintln(os.Stderr, "-recover needs -journal")
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "-shards must be at least 1")
		os.Exit(2)
	}
	// Bind before building the backend (which opens and may replay the
	// journal) and before announcing the address, so a taken port exits
	// immediately with nothing to unwind.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	scfg := mrcprm.ShardConfig{Base: cfg, Shards: *shards, Seed: *routeSeed}
	run, closed, err := openBackend(scfg, *doRecover)
	if err != nil {
		// An unknown -rm name surfaces here, listing the registered policies.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cfg.Mode == mrcprm.ServiceWall {
		if err := run.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else if *doRecover && closed {
		// A recovered virtual run whose intake was already closed is sealed:
		// finish the interrupted stream without waiting for a client to POST
		// /v1/admin/run again.
		if err := run.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("recovered  : intake was closed; resuming the interrupted run")
	}

	srv := &http.Server{
		Handler:           mrcprm.NewServiceHandler(run),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	fmt.Printf("mrcpd      : %s\n", cli.Version())
	fmt.Printf("listening  : %s (%s mode, %s, m=%d, shards=%d)\n", *addr, *mode, *rmName, *m, *shards)
	if cluster.Heterogeneous() || cluster.MemCapacity > 0 {
		fmt.Printf("hetero     : speeds %.3g..%.3g, mem capacity %d\n",
			cluster.MinSpeed(), cluster.MaxSpeed(), cluster.MemCapacity)
	}
	fmt.Printf("observe    : /metrics (prometheus), /v1/metrics (json + slo burn), /v1/jobs/{id}/trace; miss budget %.0f%% over %v\n",
		100**missBudget, *sloWindow)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	runDone := run.Done()
serve:
	for {
		select {
		case sig := <-sigs:
			fmt.Printf("signal     : %v, draining outstanding work (up to %v)\n", sig, *drainTimeout)
			run.CloseIntake()
			// A virtual-mode daemon that never received /v1/admin/run still
			// needs its loop to run the submitted work to completion.
			if err := run.Start(); err != nil && !errors.Is(err, mrcprm.ErrServiceRunning) {
				fmt.Fprintln(os.Stderr, err)
			}
			select {
			case <-run.Done():
			case <-time.After(*drainTimeout):
				fmt.Fprintln(os.Stderr, "drain timeout; aborting run")
				run.Stop()
				<-run.Done()
			case <-sigs:
				fmt.Fprintln(os.Stderr, "second signal; aborting run")
				run.Stop()
				<-run.Done()
			}
			break serve
		case <-runDone:
			// The run finished (run+close over the API); keep serving
			// queries — clients poll /v1/metrics for the outcome — and
			// exit on the next signal.
			fmt.Println("run        : finished; still serving queries (SIGTERM to exit)")
			runDone = nil
		case err := <-httpErr:
			fmt.Fprintln(os.Stderr, err)
			run.Stop()
			<-run.Done()
			os.Exit(1)
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)

	// Seal the telemetry stream before the deferred Close reports it: fold
	// the final counter/gauge/histogram state into summary events stamped
	// at the drained engine's clock, then flush. On the registry-only
	// handle the events go to a discard sink and this is a no-op.
	tel.EmitSummary(run.NowMS())
	tel.Flush()

	if runErr := run.Wait(); runErr != nil && !errors.Is(runErr, mrcprm.ErrServiceStopped) {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
	snap := run.Metrics()
	fmt.Printf("jobs       : %d arrived, %d completed, %d late, %d abandoned\n",
		snap.JobsArrived, snap.JobsCompleted, snap.LateJobs, snap.JobsAbandoned)
	if snap.Fingerprint != "" {
		fmt.Printf("fingerprint: %s\n", snap.Fingerprint)
	}
}

// openBackend builds the router the flags describe, fresh or replayed from
// its journal segments; the bool reports whether a recovered journal had
// already closed its intake.
func openBackend(cfg mrcprm.ShardConfig, replay bool) (*mrcprm.ShardRouter, bool, error) {
	// Split a global bound evenly (rounding up) so N shards shed at roughly
	// the same total depth as one engine would.
	cfg.Base.MaxPending = (cfg.Base.MaxPending + cfg.Shards - 1) / cfg.Shards
	if !replay {
		r, err := mrcprm.NewShardRouter(cfg)
		return r, false, err
	}
	r, info, err := mrcprm.RecoverShardRouter(cfg)
	if err != nil {
		return nil, false, err
	}
	fmt.Printf("recovered  : %d shards, %d records (%d accepted, %d rejected, closed=%v)\n",
		cfg.Shards, info.Records, info.Accepted, info.Rejected, info.Closed)
	return r, info.Closed, nil
}
