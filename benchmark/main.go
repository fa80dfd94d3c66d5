// Command benchmark is the one harness for the whole pipeline: five named
// workloads, the end-to-end metrics a user of the system sees, and the
// per-layer figures behind them, all measured from outside the program —
// by timing calls into the layers' public functions and reading what the
// program already exposes. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md explains them.
//
//	bash benchmark/run.sh                      every workload, both passes, all metrics
//	bash benchmark/run.sh -selfcheck           two full sets, compared against the bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                           one workload; last stdout line is one JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and regression bounds are declared.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (so
// the harness runs from the repository root or from benchmark/) and returns
// it with the repository root.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// envStamp records where and on what a result set was measured.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds_per_workload"`
	Started    string  `json:"started"`
}

func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// commit reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func stamp(seed uint64, seconds int) envStamp {
	return envStamp{Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		LoadStart: load1(), Seed: seed, Seconds: seconds,
		Started: time.Now().UTC().Format(time.RFC3339)}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON object as the last line (driver mode)")
		seed         = flag.Uint64("seed", 1, "workload seed; the program only ever sees inputs generated from it")
		seconds      = flag.Int("seconds", 0, "seconds to measure each workload for (0 = run_seconds from BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		selfcheck    = flag.Bool("selfcheck", false, "run two full sets on the same code and compare them against the bounds")
		pin          = flag.Bool("pin", false, "rewrite pins.json from this run instead of checking against it")
	)
	flag.Parse()
	// One submitting goroutine plus the engines' run loops; more procs
	// only add scheduler noise on a shared host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	spec, root, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	h := &harness{spec: spec, outDir: outDir, defs: workloads(1, outDir),
		seed: *seed, budget: time.Duration(*seconds) * time.Second}

	switch {
	case *workloadName != "":
		if err := h.driver(*workloadName, *trace == 1); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if ok, err := h.selfcheck(); err != nil {
			fatal(err)
		} else if !ok {
			os.Exit(1)
		}
	default:
		set, err := h.fullSet()
		if err != nil {
			fatal(err)
		}
		set.print(spec)
		ok := set.correct()
		pinsPath := filepath.Join(root, "benchmark", "pins.json")
		if *pin {
			if err := set.writePins(pinsPath); err != nil {
				fatal(err)
			}
		} else if problems := set.checkPins(pinsPath); len(problems) > 0 {
			ok = false
			for _, p := range problems {
				fmt.Println("PIN MISMATCH:", p)
			}
		}
		if err := writeJSON(filepath.Join(outDir, "results.json"), set); err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Println("FAIL: outputs are not correct")
			os.Exit(1)
		}
		fmt.Println("ok: all outputs correct")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// harness is one invocation's settings.
type harness struct {
	spec   *benchSpec
	outDir string
	defs   []workloadDef
	seed   uint64
	budget time.Duration
}

func (h *harness) def(name string) (workloadDef, error) {
	for _, d := range h.defs {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// measure runs one workload: untraced repetitions fill the budget, with
// traced ones interleaved when alternate is set.
func (h *harness) measure(def workloadDef, withTrace, alternate bool) (*result, error) {
	untraced, traced, err := runReps(def, h.seed, h.budget, withTrace && alternate)
	if err != nil {
		return nil, err
	}
	return h.finish(def, untraced, traced, withTrace)
}

// reportTraced is how many traced repetitions the report mode adds after
// the untraced pass: each re-runs an untraced repetition's variant, and one
// pair alone gives a tracing overhead that is mostly host noise.
const reportTraced = 3

// finish turns repetitions into a result. With withTrace it adds traced
// repetitions if there are none yet, fills the per-layer table, runs the
// workload's twins and writes the trace file.
func (h *harness) finish(def workloadDef, untraced, traced []*rep, withTrace bool) (*result, error) {
	if withTrace && len(traced) == 0 {
		for k := 0; k < min(reportTraced, len(untraced)); k++ {
			r, err := def.runRep(variantSeed(h.seed, k), true)
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", def.name, err)
			}
			traced = append(traced, r)
		}
	}
	res := summarize(def, h.seed, untraced, traced)
	if def.check != nil {
		for _, p := range def.check(variantSeed(h.seed, 0), untraced[0]) {
			res.Failed++
			res.problem("%s", p)
		}
	}
	if withTrace {
		layers(def, res, untraced, traced)
		spans := traced[0].spans
		if def.twins != nil {
			twinSpans, err := def.twins(variantSeed(h.seed, 0), res.EndToEnd["op_ms_p50"]*1e6, res.PerLayer)
			if err != nil {
				return nil, fmt.Errorf("%s (twins): %w", def.name, err)
			}
			spans = appendSpans(spans, twinSpans)
		}
		if err := writeTrace(filepath.Join(h.outDir, "trace-"+def.name+".json"), def.name, spans); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// appendSpans concatenates two span forests, re-basing the second one's
// parent indexes.
func appendSpans(a, b []span) []span {
	off := int32(len(a))
	for _, s := range b {
		if s.parent >= 0 {
			s.parent += off
		}
		a = append(a, s)
	}
	return a
}

// driver is the mode the benchmark driver calls: one workload, and as the
// last line of standard output one JSON object with exactly the keys
// correct, attempted, failed and metrics.
func (h *harness) driver(name string, traced bool) error {
	def, err := h.def(name)
	if err != nil {
		return err
	}
	env := stamp(h.seed, int(h.budget.Seconds()))
	warnLoad(env)
	res, err := h.measure(def, traced, true)
	if err != nil {
		return err
	}
	env.LoadEnd = load1()
	env.print()
	printResult(h.spec, res)
	specs, values := h.spec.EndToEnd, res.EndToEnd
	if traced {
		specs, values = h.spec.PerLayer, res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if (!ok && !traced) || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", name, m.Name)
		}
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func warnLoad(env envStamp) {
	if env.LoadStart > float64(env.NumCPU) {
		fmt.Printf("WARNING: 1-minute load average %.2f exceeds nproc %d; timings will be noisy\n",
			env.LoadStart, env.NumCPU)
	}
}

// resultSet is one full set: every workload, both passes, with its stamp.
type resultSet struct {
	Env     envStamp  `json:"env"`
	Results []*result `json:"workloads"`
}

func (h *harness) fullSet() (*resultSet, error) {
	set := &resultSet{Env: stamp(h.seed, int(h.budget.Seconds()))}
	warnLoad(set.Env)
	for _, def := range h.defs {
		fmt.Fprintf(os.Stderr, "running %s ...\n", def.name)
		res, err := h.measure(def, true, false)
		if err != nil {
			return nil, err
		}
		set.Results = append(set.Results, res)
	}
	set.Env.LoadEnd = load1()
	return set, nil
}

func (set *resultSet) correct() bool {
	for _, r := range set.Results {
		if !r.Correct {
			return false
		}
	}
	return true
}

func (e envStamp) print() {
	fmt.Printf("env: commit=%s %s GOMAXPROCS=%d nproc=%d load1=%.2f..%.2f seed=%d seconds=%d started=%s\n",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.LoadStart, e.LoadEnd, e.Seed, e.Seconds, e.Started)
}

func (set *resultSet) print(spec *benchSpec) {
	set.Env.print()
	for _, r := range set.Results {
		printResult(spec, r)
	}
}

// printResult prints every metric of one workload by name, with its unit
// and, for latency figures, the number of samples behind it.
func printResult(spec *benchSpec, r *result) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	fmt.Printf("\n== %s  %s  seed=%d reps=%d traced=%d attempted=%d failed=%d fingerprint=%s  %s\n",
		r.Workload, r.Size, r.Seed, r.Reps, r.TracedReps, r.Attempted, r.Failed, r.Fingerprint, status)
	for _, p := range r.Problems {
		fmt.Println("   problem:", p)
	}
	row := func(m metricSpec, v float64) {
		note := ""
		if n, ok := r.Samples[m.Name]; ok {
			note = fmt.Sprintf("  n=%d", n)
		}
		if m.Name == "op_ms_tail" {
			note += "  (" + r.TailIs + ")"
		}
		fmt.Printf("   %-28s %14.6g %-6s%s\n", m.Name, v, m.Unit, note)
	}
	if r.EndToEnd != nil {
		fmt.Println(" end-to-end (untraced pass, medians over repetitions):")
		for _, m := range spec.EndToEnd {
			row(m, r.EndToEnd[m.Name])
		}
	}
	if r.PerLayer != nil {
		fmt.Println(" per-layer (traced pass):")
		for _, m := range spec.PerLayer {
			row(m, r.PerLayer[m.Name])
		}
		if c, ok := r.PerLayer["trace.coverage"]; ok {
			fmt.Printf("   %-28s %14.6g %-6s  layers' self times / run wall\n", "trace.coverage", c, "frac")
		}
	}
}

// pins are the output fingerprints expected at one seed; a mismatch means
// the program's scheduling behaviour changed.
type pins struct {
	Seed         uint64            `json:"seed"`
	Fingerprints map[string]string `json:"fingerprints"`
}

func (set *resultSet) writePins(path string) error {
	p := pins{Seed: set.Env.Seed, Fingerprints: map[string]string{}}
	for _, r := range set.Results {
		p.Fingerprints[r.Workload] = r.Fingerprint
	}
	return writeJSON(path, p)
}

// checkPins compares the set's fingerprints with the pinned ones; pins
// taken at another seed do not apply.
func (set *resultSet) checkPins(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var p pins
	if err := json.Unmarshal(data, &p); err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	if p.Seed != set.Env.Seed {
		return nil
	}
	var problems []string
	for _, r := range set.Results {
		if want := p.Fingerprints[r.Workload]; want != r.Fingerprint {
			problems = append(problems, fmt.Sprintf("%s: fingerprint %s, pinned %s", r.Workload, r.Fingerprint, want))
		}
	}
	return problems
}

// deterministic reports whether a metric is a pure function of the code
// and the seed, so that two runs must agree on it exactly.
func deterministic(m metricSpec) bool {
	switch {
	case strings.HasPrefix(m.Name, "go."), m.Name == "obs.overhead_frac":
		return false
	case m.Name == "turnaround_s":
		return true
	}
	return m.Unit == "count" || m.Unit == "frac"
}

// selfcheck runs two full sets on the same code and prints, per metric and
// workload, both values, their relative difference and the bound. It fails
// on a bounded metric that is worse in the second set by more than its
// bound, and on any deterministic metric that differs at all.
func (h *harness) selfcheck() (bool, error) {
	var sets [2]*resultSet
	for i := range sets {
		fmt.Fprintf(os.Stderr, "selfcheck: set %d of 2\n", i+1)
		set, err := h.fullSet()
		if err != nil {
			return false, err
		}
		sets[i] = set
	}
	ok := sets[0].correct() && sets[1].correct()
	fmt.Printf("%-14s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "diff", "bound", "verdict")
	for w, a := range sets[0].Results {
		b := sets[1].Results[w]
		compare := func(m metricSpec, va, vb float64) {
			diff := ratio(vb-va, math.Abs(va))
			verdict, bound := "ok", "-"
			switch {
			case deterministic(m):
				bound = "exact"
				if va != vb {
					verdict, ok = "DIFFERS", false
				}
			case m.Bound > 0:
				bound = fmt.Sprintf("%.2f", m.Bound)
				worse := diff
				if m.Better == "higher" {
					worse = -diff
				}
				if worse > m.Bound {
					verdict, ok = "OUTSIDE BOUND", false
				}
			}
			fmt.Printf("%-14s %-28s %14.6g %14.6g %+8.2f%% %7s  %s\n", a.Workload, m.Name, va, vb, 100*diff, bound, verdict)
		}
		for _, m := range h.spec.EndToEnd {
			compare(m, a.EndToEnd[m.Name], b.EndToEnd[m.Name])
		}
		for _, m := range h.spec.PerLayer {
			compare(m, a.PerLayer[m.Name], b.PerLayer[m.Name])
		}
		if a.Fingerprint != b.Fingerprint {
			fmt.Printf("%-14s fingerprint %s vs %s  DIFFERS\n", a.Workload, a.Fingerprint, b.Fingerprint)
			ok = false
		}
	}
	if err := writeJSON(filepath.Join(h.outDir, "selfcheck.json"), sets); err != nil {
		return false, err
	}
	if ok {
		fmt.Println("selfcheck ok: two sets agree within the bounds; deterministic metrics identical")
	} else {
		fmt.Println("selfcheck FAILED")
	}
	return ok, nil
}
