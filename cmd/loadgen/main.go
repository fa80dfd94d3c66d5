// Command loadgen replays a synthetic MapReduce job stream against a
// running mrcpd daemon and reports what happened to it.
//
// In -mode virtual it submits the whole stream up front (the daemon is
// expected to be in virtual-clock mode), triggers the run with
// POST /v1/admin/run {"close":true}, and polls until the run finishes. The
// submitted stream is exactly what `mrcpsim -n <jobs> -seed <seed>`
// generates, so the daemon's metrics are comparable to the offline
// simulator's. With -verify the served final-metrics fingerprint is also
// checked against a local deterministic replay of the accepted stream —
// the daemon must then run with -deterministic and the same cluster shape.
//
// In -mode wall it replays the stream open-loop: each job is submitted
// when its generated arrival time comes up on the (speedup-scaled) wall
// clock, then intake is closed and the run polled to completion.
//
// In -mode stress it drives an open-loop arrival ramp (-rate0 to -rate1
// jobs/s over -duration) with heavy-tailed job sizes (bounded Pareto task
// multipliers) and periodic bursts against a wall-mode daemon, measuring
// the admission path: p50/p90/p95/p99 admission latency, shed (429)
// counts, the max sustainable rate (the highest 1-second offered rate the
// daemon absorbed with zero sheds and p99 under -p99cap), and end-to-end
// job-latency quantiles scraped from the daemon's Prometheus endpoint.
//
// Exit status is non-zero if any submission fails unexpectedly, if
// accepted != completed + abandoned, or if -verify finds a fingerprint
// divergence — which makes the summary line a CI assertion:
//
//	loadgen: submitted=40 accepted=40 rejected=0 completed=40 late=2 abandoned=0 policy=mrcp fingerprint=8be0...
//
// Usage:
//
//	loadgen -addr http://localhost:8373 -jobs 40 -seed 3
//	loadgen -mode wall -speedup 60 -jobs 20
//	loadgen -jobs 40 -seed 3 -verify          # daemon: -mode virtual -deterministic
//	loadgen -mode stress -rate0 5 -rate1 120 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"mrcprm"
	"mrcprm/internal/cli"
)

func main() {
	common := cli.New(cli.WithSeed(1))
	var (
		addr    = flag.String("addr", "http://localhost:8373", "mrcpd base URL")
		jobs    = flag.Int("jobs", 20, "number of jobs to replay")
		lambda  = flag.Float64("lambda", 0, "arrival rate override in jobs/s (0 = workload default)")
		m       = flag.Int("m", 10, "cluster size assumed by the generator")
		mode    = flag.String("mode", "virtual", "replay mode: virtual, wall, or stress")
		speedup = flag.Float64("speedup", 1, "wall mode: simulated ms per wall ms (match the daemon)")
		timeout = flag.Duration("timeout", 5*time.Minute, "max time to wait for the run to finish")
		verify  = flag.Bool("verify", false, "virtual mode: replay the accepted stream locally and require an identical metrics fingerprint (daemon must run -deterministic)")

		rate0      = flag.Float64("rate0", 5, "stress: initial arrival rate in jobs/s")
		rate1      = flag.Float64("rate1", 100, "stress: final arrival rate in jobs/s")
		duration   = flag.Duration("duration", 10*time.Second, "stress: ramp duration")
		burst      = flag.Int("burst", 10, "stress: jobs per burst (0 = no bursts)")
		burstEvery = flag.Duration("burstevery", 3*time.Second, "stress: interval between bursts")
		tailAlpha  = flag.Float64("tailalpha", 1.5, "stress: bounded-Pareto tail index for job-size multipliers")
		p99Cap     = flag.Duration("p99cap", 50*time.Millisecond, "stress: per-second p99 admission latency bound for the sustainable-rate estimate")
	)
	common.Parse()

	if *mode == "stress" {
		os.Exit(stress(stressConfig{
			addr: *addr, m: *m, seed: common.Seed,
			rate0: *rate0, rate1: *rate1, duration: *duration,
			burst: *burst, burstEvery: *burstEvery,
			tailAlpha: *tailAlpha, p99Cap: *p99Cap,
		}))
	}

	wcfg := mrcprm.DefaultSyntheticWorkload()
	wcfg.NumResources = *m
	if *lambda > 0 {
		wcfg.Lambda = *lambda
	}
	stream, err := wcfg.Generate(*jobs, mrcprm.NewStream(common.Seed, 0xfeed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	specs := make([]mrcprm.JobSpec, len(stream))
	for i, j := range stream {
		specs[i] = mrcprm.JobSpecOf(j)
	}
	sort.SliceStable(specs, func(i, k int) bool { return specs[i].ArrivalMS < specs[k].ArrivalMS })

	client := &http.Client{Timeout: 30 * time.Second}
	var submitted, accepted, rejected int
	// acceptedJobs mirrors the daemon's admitted stream (spec + assigned ID)
	// for the -verify local replay.
	var acceptedJobs []acceptedJob
	start := time.Now()
	for _, spec := range specs {
		if *mode == "wall" {
			// Open-loop pacing: submit when the generated arrival comes up
			// on the speedup-scaled wall clock; the daemon restamps
			// arrivals at receipt.
			due := time.Duration(float64(spec.ArrivalMS) / *speedup * float64(time.Millisecond))
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		submitted++
	resubmit:
		status, body, err := postJSON(client, *addr+"/v1/jobs", spec)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "submit: %v\n", err)
			os.Exit(1)
		case status == http.StatusAccepted:
			accepted++
			var resp struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				fmt.Fprintf(os.Stderr, "submit: parsing accept body %q: %v\n", body, err)
				os.Exit(1)
			}
			acceptedJobs = append(acceptedJobs, acceptedJob{id: resp.ID, spec: spec})
		case status == http.StatusUnprocessableEntity:
			rejected++
		case status == http.StatusTooManyRequests && *mode == "wall":
			// Honor the backpressure hint: the daemon drains in wall time,
			// so waiting and retrying is meaningful (unlike virtual mode,
			// where nothing drains until /v1/admin/run).
			wait := retryAfter(body)
			if time.Since(start)+wait > *timeout {
				fmt.Fprintf(os.Stderr, "submit: still overloaded at timeout: %s\n", body)
				os.Exit(1)
			}
			time.Sleep(wait)
			goto resubmit
		default:
			fmt.Fprintf(os.Stderr, "submit: unexpected %d: %s\n", status, body)
			os.Exit(1)
		}
	}

	run := map[string]bool{"close": true}
	if status, body, err := postJSON(client, *addr+"/v1/admin/run", run); err != nil || status != http.StatusOK {
		fmt.Fprintf(os.Stderr, "run: %d %s (%v)\n", status, body, err)
		os.Exit(1)
	}

	deadline := time.Now().Add(*timeout)
	var snap mrcprm.ServiceSnapshot
	for {
		if err := getJSON(client, *addr+"/v1/metrics", &snap); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		if snap.Finished {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "timed out after %v: %d/%d jobs completed\n",
				*timeout, snap.JobsCompleted, accepted)
			os.Exit(1)
		}
		time.Sleep(200 * time.Millisecond)
	}

	fmt.Printf("loadgen: submitted=%d accepted=%d rejected=%d completed=%d late=%d abandoned=%d policy=%s fingerprint=%s\n",
		submitted, accepted, rejected, snap.JobsCompleted, snap.LateJobs, snap.JobsAbandoned, snap.Policy, snap.Fingerprint)
	if accepted != snap.JobsCompleted+snap.JobsAbandoned {
		fmt.Fprintf(os.Stderr, "accounting mismatch: accepted %d but %d completed + %d abandoned\n",
			accepted, snap.JobsCompleted, snap.JobsAbandoned)
		os.Exit(1)
	}
	if *verify {
		if err := verifyReplay(snap, acceptedJobs); err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
			os.Exit(1)
		}
	}
}

// verifyReplay checks the served fingerprints against a local replay. The
// daemon is a router over N >= 1 shards, and a global ID encodes the
// placement (gid = local*N + shard, see internal/shard), so the accepted
// stream partitions exactly as the router placed it: each shard's slice is
// replayed on that shard's resources, and every per-shard fingerprint — and
// their combination — must match what the daemon served.
func verifyReplay(snap mrcprm.ServiceSnapshot, accepted []acceptedJob) error {
	n := len(snap.Shards)
	if n == 0 {
		return fmt.Errorf("the daemon reported no shards")
	}
	byShard := make([][]acceptedJob, n)
	for _, a := range accepted {
		byShard[a.id%n] = append(byShard[a.id%n], a)
	}
	fps := make([]uint64, n)
	for s, view := range snap.Shards {
		cluster := mrcprm.Cluster{NumResources: view.Resources, MapSlots: 2, ReduceSlots: 2}
		fp, err := replayFingerprint(cluster, view.Policy, byShard[s], n)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		fps[s] = fp
		if want := fmt.Sprintf("%016x", fp); view.Fingerprint != want {
			return fmt.Errorf("shard %d fingerprint %s diverges from local replay %s", s, view.Fingerprint, want)
		}
	}
	want := fmt.Sprintf("%016x", mrcprm.CombineShardFingerprints(fps))
	if snap.Fingerprint != want {
		return fmt.Errorf("combined fingerprint %s diverges from local replay %s", snap.Fingerprint, want)
	}
	fmt.Printf("loadgen: verify ok (%d shards, combined fingerprint %s)\n", n, want)
	return nil
}

// acceptedJob is one admitted submission (spec + daemon-assigned ID) kept
// for the -verify local replay.
type acceptedJob struct {
	id   int
	spec mrcprm.JobSpec
}

// replayFingerprint rebuilds one shard's accepted stream as simulator jobs —
// with IDs mapped from global to engine-local space (gid/n) — runs it
// deterministically, and returns the metrics fingerprint for comparison
// with what the daemon served.
func replayFingerprint(cluster mrcprm.Cluster, policy string, accepted []acceptedJob, n int) (uint64, error) {
	opts := mrcprm.PolicyOptions{}
	if policy == "mrcp" {
		opts.Extra = mrcprm.DeterministicConfig()
	}
	rm, err := mrcprm.NewPolicy(policy, cluster, opts)
	if err != nil {
		return 0, err
	}
	ref := make([]*mrcprm.Job, 0, len(accepted))
	for _, a := range accepted {
		j, err := a.spec.Job(a.id / n)
		if err != nil {
			return 0, fmt.Errorf("rebuilding job %d: %w", a.id, err)
		}
		ref = append(ref, j)
	}
	metrics, err := mrcprm.Simulate(cluster, rm, ref)
	if err != nil {
		return 0, err
	}
	return metrics.Fingerprint(), nil
}

// retryAfter extracts the retry hint from a 429 body, falling back to 1s.
func retryAfter(body []byte) time.Duration {
	var resp struct {
		RetryAfterMS int64 `json:"retryAfterMs"`
	}
	if err := json.Unmarshal(body, &resp); err == nil && resp.RetryAfterMS > 0 {
		return time.Duration(resp.RetryAfterMS) * time.Millisecond
	}
	return time.Second
}

// --- Stress mode ---

type stressConfig struct {
	addr       string
	m          int
	seed       uint64
	rate0      float64
	rate1      float64
	duration   time.Duration
	burst      int
	burstEvery time.Duration
	tailAlpha  float64
	p99Cap     time.Duration
}

// stressSample is one submission's outcome.
type stressSample struct {
	at      time.Duration // scheduled offset into the ramp
	latency time.Duration
	status  int
	err     bool
}

// stressReport is what the stress summary lines print.
type stressReport struct {
	submitted, accepted, rejected, shed, errors int

	// Admission latency quantiles in ms, client side.
	p50, p90, p95, p99 float64

	// End-to-end job latency quantiles in ms, scraped from the daemon's
	// mrcp_job_e2e_ms histogram after the ramp; zero when nothing completed
	// by scrape time. Estimates carry the histogram's one-bucket-width
	// (factor sqrt 2) accuracy.
	e2eP50, e2eP90, e2eP95 float64
	e2eCount               int64

	// sustainable is the highest 1-second offered rate (jobs/s) the daemon
	// absorbed with zero sheds and bucket p99 within the cap.
	sustainable float64
}

// stress drives the open-loop ramp and returns the process exit code.
func stress(cfg stressConfig) int {
	// Size templates from the synthetic generator so exec times are
	// realistic; the ramp then scales task counts heavy-tailed.
	wcfg := mrcprm.DefaultSyntheticWorkload()
	wcfg.NumResources = cfg.m
	base, err := wcfg.Generate(50, mrcprm.NewStream(cfg.seed, 0xfeed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Precompute the whole submission plan (times and specs) so the firing
	// loop does no random-number work: open-loop means send times must not
	// depend on responses.
	rng := mrcprm.NewStream(cfg.seed, 0x57e55)
	durS := cfg.duration.Seconds()
	var times []time.Duration
	for t := 0.0; t < durS; {
		r := cfg.rate0 + (cfg.rate1-cfg.rate0)*t/durS
		if r < 0.1 {
			r = 0.1
		}
		t += rng.ExpFloat64() / r
		if t < durS {
			times = append(times, time.Duration(t*float64(time.Second)))
		}
	}
	if cfg.burst > 0 && cfg.burstEvery > 0 {
		for bt := cfg.burstEvery; bt < cfg.duration; bt += cfg.burstEvery {
			for i := 0; i < cfg.burst; i++ {
				times = append(times, bt)
			}
		}
	}
	sort.Slice(times, func(i, k int) bool { return times[i] < times[k] })
	specs := make([]mrcprm.JobSpec, len(times))
	for i := range specs {
		specs[i] = stressSpec(base[rng.IntN(len(base))], rng.Float64(), cfg.tailAlpha)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	samples := make([]stressSample, len(times))
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range times {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			t0 := time.Now()
			status, _, err := postJSON(client, cfg.addr+"/v1/jobs", specs[i])
			samples[i] = stressSample{at: due, latency: time.Since(t0), status: status, err: err != nil}
		}(i, due)
	}
	wg.Wait()

	rep := analyze(cfg, samples)
	scrapeE2E(client, cfg.addr, rep)
	fmt.Printf("loadgen stress: submitted=%d accepted=%d rejected=%d shed=%d errors=%d p50=%.1fms p90=%.1fms p95=%.1fms p99=%.1fms sustainable=%.0f jobs/s\n",
		rep.submitted, rep.accepted, rep.rejected, rep.shed, rep.errors,
		rep.p50, rep.p90, rep.p95, rep.p99, rep.sustainable)
	if rep.e2eCount > 0 {
		fmt.Printf("loadgen stress: e2e (n=%d, scraped) p50=%.0fms p90=%.0fms p95=%.0fms\n",
			rep.e2eCount, rep.e2eP50, rep.e2eP90, rep.e2eP95)
	}
	if rep.errors > 0 {
		fmt.Fprintf(os.Stderr, "stress: %d transport errors\n", rep.errors)
		return 1
	}
	return 0
}

// stressSpec builds one heavy-tailed submission from a template job: the
// map phase is scaled by a bounded Pareto multiplier (tail index alpha,
// support [1, 16]) and the deadline stretched proportionally so the job
// stays individually feasible.
func stressSpec(template *mrcprm.Job, u, alpha float64) mrcprm.JobSpec {
	spec := mrcprm.JobSpecOf(template)
	spec.ArrivalMS = 0 // the wall-mode daemon restamps at receipt
	mult := math.Pow(1-u*(1-math.Pow(1.0/16, alpha)), -1/alpha)
	n := int(math.Ceil(float64(len(spec.MapExecMS)) * mult))
	if n > 64 {
		n = 64
	}
	maps := make([]int64, n)
	for i := range maps {
		maps[i] = spec.MapExecMS[i%len(spec.MapExecMS)]
	}
	spec.MapExecMS = maps
	window := spec.DeadlineMS - spec.ArrivalMS
	spec.DeadlineMS = spec.ArrivalMS + int64(float64(window)*mult)
	return spec
}

// analyze folds the samples into the report.
func analyze(cfg stressConfig, samples []stressSample) *stressReport {
	rep := &stressReport{submitted: len(samples)}
	var lats []time.Duration
	nBuckets := int(cfg.duration.Seconds()) + 1
	type bucket struct {
		offered, shed int
		lats          []time.Duration
	}
	buckets := make([]bucket, nBuckets)
	for _, s := range samples {
		b := int(s.at.Seconds())
		if b >= nBuckets {
			b = nBuckets - 1
		}
		buckets[b].offered++
		switch {
		case s.err:
			rep.errors++
			continue
		case s.status == http.StatusAccepted:
			rep.accepted++
		case s.status == http.StatusUnprocessableEntity:
			rep.rejected++
		case s.status == http.StatusTooManyRequests:
			rep.shed++
			buckets[b].shed++
		default:
			rep.errors++
			continue
		}
		lats = append(lats, s.latency)
		buckets[b].lats = append(buckets[b].lats, s.latency)
	}
	sort.Slice(lats, func(i, k int) bool { return lats[i] < lats[k] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.p50 = ms(percentile(lats, 0.50))
	rep.p90 = ms(percentile(lats, 0.90))
	rep.p95 = ms(percentile(lats, 0.95))
	rep.p99 = ms(percentile(lats, 0.99))
	for _, b := range buckets {
		if b.offered == 0 {
			continue
		}
		sort.Slice(b.lats, func(x, y int) bool { return b.lats[x] < b.lats[y] })
		if b.shed == 0 && percentile(b.lats, 0.99) <= cfg.p99Cap && float64(b.offered) > rep.sustainable {
			rep.sustainable = float64(b.offered)
		}
	}
	return rep
}

// scrapeE2E pulls the daemon's end-to-end job-latency histogram off the
// Prometheus endpoint and folds its quantiles into the report. Best
// effort: a daemon predating /metrics, a scrape failure, or an empty
// histogram (nothing completed yet) leaves the fields zero.
func scrapeE2E(client *http.Client, addr string, rep *stressReport) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	scrape, err := mrcprm.ParsePrometheus(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stress: bad /metrics exposition: %v\n", err)
		return
	}
	ph, ok := scrape.Hists["mrcp_job_e2e_ms"]
	if !ok || ph.Count == 0 {
		return
	}
	h, err := ph.Snapshot("job_e2e_ms")
	if err != nil {
		fmt.Fprintf(os.Stderr, "stress: e2e histogram: %v\n", err)
		return
	}
	rep.e2eCount = h.Count
	rep.e2eP50 = h.Quantile(0.50)
	rep.e2eP90 = h.Quantile(0.90)
	rep.e2eP95 = h.Quantile(0.95)
}

// percentile returns the q-quantile of sorted durations (nearest rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func postJSON(client *http.Client, url string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out.Bytes(), nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
