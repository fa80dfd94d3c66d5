package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Report is the digest of one telemetry JSONL stream: solve-latency
// percentiles, fallback rate, objective convergence, and the sim
// time-series envelope. Build one with ReadReport, render it with Write.
type Report struct {
	Events     int
	BadLines   int
	KindCounts map[string]int // "layer/kind" -> count

	// Manager invocation digest.
	Reschedules   int
	Fallbacks     int
	LimitHits     int
	StatusCounts  map[string]int
	ReasonCounts  map[string]int
	InvokeWallMS  []float64 // reschedule span durations
	PredictedLate []float64

	// Solver digest.
	Solves        int
	SolveWallMS   []float64
	FirstWallMS   []float64
	SolveNodes    []float64
	Backtracks    []float64
	Propagations  []float64
	FirstObj      []float64
	FinalObj      []float64
	ImprovePasses int
	ImproveOK     int
	NodeLimitHits int
	TimeLimitHits int

	// Incremental-solving digest: CP model sizes (tasks per solve), the
	// warm-start funnel (hinted solves and how many of their hints seeded
	// the incumbent), and the final counter summary ("obs/counters"
	// event), which carries the solve-cache hit/miss totals.
	ModelTasks []float64
	WarmSolves int
	WarmSeeded int
	Counters   map[string]float64

	// Sim time-series envelope.
	Samples     int
	BusyMap     series
	BusyReduce  series
	WaitingMap  series
	WaitingRed  series
	Outstanding series

	// Streaming-histogram summaries ("obs/hist" events), keyed by
	// histogram name. Wall-clock histograms carry wall_-prefixed value
	// keys in the stream; the digest normalizes them away.
	Hists map[string]HistDigest

	// Admission-router digest ("shard/route" events plus the shard_*
	// counters from the final counter summary).
	Routed       int
	RouteByShard map[string]int

	// Deadline-miss attribution digest ("obs/slo_attribution" events).
	Attributions  int
	AttrByClass   map[string]int
	AttrByOutcome map[string]int
	AttrLateness  []float64

	// Final run_end event, if present.
	RunEnd map[string]float64
}

// HistDigest is one histogram's summary-event quantile table.
type HistDigest struct {
	Count              float64
	Sum, Min, Max      float64
	P50, P90, P95, P99 float64
}

type series struct {
	n    int
	sum  float64
	peak float64
}

func (s *series) add(v float64) {
	s.n++
	s.sum += v
	if v > s.peak {
		s.peak = v
	}
}

func (s *series) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// ReadReport parses a telemetry JSONL stream into a Report. Unparseable
// lines are counted, not fatal, so a truncated file still digests.
func ReadReport(r io.Reader) (*Report, error) {
	rep := &Report{
		KindCounts:    make(map[string]int),
		StatusCounts:  make(map[string]int),
		ReasonCounts:  make(map[string]int),
		Hists:         make(map[string]HistDigest),
		AttrByClass:   make(map[string]int),
		AttrByOutcome: make(map[string]int),
		Counters:      make(map[string]float64),
		RouteByShard:  make(map[string]int),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			rep.BadLines++
			continue
		}
		rep.ingest(ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

func (rep *Report) ingest(ev map[string]any) {
	rep.Events++
	layer, _ := ev["layer"].(string)
	kind, _ := ev["kind"].(string)
	rep.KindCounts[layer+"/"+kind]++
	num := func(key string) (float64, bool) {
		v, ok := ev[key].(float64)
		return v, ok
	}
	switch layer + "/" + kind {
	case "manager/reschedule":
		rep.Reschedules++
		if st, ok := ev["status"].(string); ok {
			rep.StatusCounts[st]++
		}
		if rs, ok := ev["reason"].(string); ok {
			rep.ReasonCounts[rs]++
		}
		if fb, ok := ev["fallback"].(bool); ok && fb {
			rep.Fallbacks++
		}
		if lh, ok := ev["limit_hit"].(bool); ok && lh {
			rep.LimitHits++
		}
		if v, ok := num("wall_ms"); ok {
			rep.InvokeWallMS = append(rep.InvokeWallMS, v)
		}
		if v, ok := num("predicted_late"); ok && v >= 0 {
			rep.PredictedLate = append(rep.PredictedLate, v)
		}
	case "solver/solve":
		rep.Solves++
		if v, ok := num("wall_solve"); ok {
			rep.SolveWallMS = append(rep.SolveWallMS, v)
		}
		if v, ok := num("wall_first_solution"); ok {
			rep.FirstWallMS = append(rep.FirstWallMS, v)
		}
		if v, ok := num("nodes"); ok {
			rep.SolveNodes = append(rep.SolveNodes, v)
		}
		if v, ok := num("backtracks"); ok {
			rep.Backtracks = append(rep.Backtracks, v)
		}
		if v, ok := num("propagations"); ok {
			rep.Propagations = append(rep.Propagations, v)
		}
		if v, ok := num("first_objective"); ok && v >= 0 {
			rep.FirstObj = append(rep.FirstObj, v)
		}
		if v, ok := num("objective"); ok && v >= 0 {
			rep.FinalObj = append(rep.FinalObj, v)
		}
		if v, ok := num("improve_passes"); ok {
			rep.ImprovePasses += int(v)
		}
		if v, ok := num("improve_accepts"); ok {
			rep.ImproveOK += int(v)
		}
		if b, ok := ev["node_limit_hit"].(bool); ok && b {
			rep.NodeLimitHits++
		}
		if b, ok := ev["time_limit_hit"].(bool); ok && b {
			rep.TimeLimitHits++
		}
		if v, ok := num("model_tasks"); ok {
			rep.ModelTasks = append(rep.ModelTasks, v)
		}
		if b, ok := ev["warmstart"].(bool); ok && b {
			rep.WarmSolves++
		}
		if b, ok := ev["hint_seeded"].(bool); ok && b {
			rep.WarmSeeded++
		}
	case "obs/counters":
		for k, v := range ev {
			if f, ok := v.(float64); ok {
				rep.Counters[k] = f
			}
		}
	case "sim/sample":
		rep.Samples++
		if v, ok := num("busy_map_slots"); ok {
			rep.BusyMap.add(v)
		}
		if v, ok := num("busy_reduce_slots"); ok {
			rep.BusyReduce.add(v)
		}
		if v, ok := num("waiting_map_tasks"); ok {
			rep.WaitingMap.add(v)
		}
		if v, ok := num("waiting_reduce_tasks"); ok {
			rep.WaitingRed.add(v)
		}
		if v, ok := num("outstanding_jobs"); ok {
			rep.Outstanding.add(v)
		}
	case "obs/hist":
		name, _ := ev["name"].(string)
		if name == "" {
			return
		}
		// Wall-clock histograms prefix their value keys with wall_ so the
		// determinism tests can strip them; accept either spelling.
		val := func(key string) float64 {
			if v, ok := num(key); ok {
				return v
			}
			v, _ := num("wall_" + key)
			return v
		}
		d := HistDigest{Sum: val("sum"), Min: val("min"), Max: val("max"),
			P50: val("p50"), P90: val("p90"), P95: val("p95"), P99: val("p99")}
		d.Count, _ = num("count")
		rep.Hists[name] = d
	case "shard/route":
		rep.Routed++
		if v, ok := num("shard"); ok {
			rep.RouteByShard[fmt.Sprintf("%.0f", v)]++
		}
	case "obs/slo_attribution":
		rep.Attributions++
		if class, ok := ev["class"].(string); ok {
			rep.AttrByClass[class]++
		}
		if outcome, ok := ev["outcome"].(string); ok {
			rep.AttrByOutcome[outcome]++
		}
		if v, ok := num("lateness_ms"); ok {
			rep.AttrLateness = append(rep.AttrLateness, v)
		}
	case "sim/run_end":
		rep.RunEnd = make(map[string]float64)
		for k, v := range ev {
			if f, ok := v.(float64); ok {
				rep.RunEnd[k] = f
			}
		}
	}
}

// percentile returns the q-quantile (0..1) of the values by the
// nearest-rank method; 0 on an empty slice.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func maxOf(vals []float64) float64 {
	var m float64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// Write renders the report as a human-readable table.
func (rep *Report) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry report — %d events", rep.Events)
	if rep.BadLines > 0 {
		fmt.Fprintf(&b, " (%d unparseable lines skipped)", rep.BadLines)
	}
	b.WriteString("\n\n")

	b.WriteString("events by kind\n")
	keys := make([]string, 0, len(rep.KindCounts))
	for k := range rep.KindCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-24s %8d\n", k, rep.KindCounts[k])
	}

	if rep.Reschedules > 0 {
		b.WriteString("\nmanager invocations\n")
		fmt.Fprintf(&b, "  reschedules            %8d\n", rep.Reschedules)
		fmt.Fprintf(&b, "  fallback rate          %7.1f%%  (%d rounds)\n",
			100*float64(rep.Fallbacks)/float64(rep.Reschedules), rep.Fallbacks)
		fmt.Fprintf(&b, "  solve-limit hit rate   %7.1f%%  (%d rounds)\n",
			100*float64(rep.LimitHits)/float64(rep.Reschedules), rep.LimitHits)
		for _, k := range sortedKeys(rep.StatusCounts) {
			fmt.Fprintf(&b, "  status %-16s %8d\n", k, rep.StatusCounts[k])
		}
		for _, k := range sortedKeys(rep.ReasonCounts) {
			fmt.Fprintf(&b, "  trigger %-15s %8d\n", k, rep.ReasonCounts[k])
		}
		if len(rep.InvokeWallMS) > 0 {
			fmt.Fprintf(&b, "  invocation latency ms  p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
				percentile(rep.InvokeWallMS, 0.50), percentile(rep.InvokeWallMS, 0.90),
				percentile(rep.InvokeWallMS, 0.99), maxOf(rep.InvokeWallMS))
		}
		if len(rep.PredictedLate) > 0 {
			fmt.Fprintf(&b, "  predicted late jobs    mean=%.2f peak=%.0f\n",
				mean(rep.PredictedLate), maxOf(rep.PredictedLate))
		}
	}

	if rep.Solves > 0 {
		b.WriteString("\nsolver search\n")
		fmt.Fprintf(&b, "  solves                 %8d\n", rep.Solves)
		if len(rep.SolveWallMS) > 0 {
			fmt.Fprintf(&b, "  solve latency ms       p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
				percentile(rep.SolveWallMS, 0.50), percentile(rep.SolveWallMS, 0.90),
				percentile(rep.SolveWallMS, 0.99), maxOf(rep.SolveWallMS))
		}
		if len(rep.FirstWallMS) > 0 {
			fmt.Fprintf(&b, "  time-to-first ms       p50=%.2f p90=%.2f max=%.2f\n",
				percentile(rep.FirstWallMS, 0.50), percentile(rep.FirstWallMS, 0.90),
				maxOf(rep.FirstWallMS))
		}
		fmt.Fprintf(&b, "  nodes per solve        mean=%.1f max=%.0f\n",
			mean(rep.SolveNodes), maxOf(rep.SolveNodes))
		fmt.Fprintf(&b, "  backtracks per solve   mean=%.1f max=%.0f\n",
			mean(rep.Backtracks), maxOf(rep.Backtracks))
		fmt.Fprintf(&b, "  propagations per solve mean=%.1f max=%.0f\n",
			mean(rep.Propagations), maxOf(rep.Propagations))
		fmt.Fprintf(&b, "  limit hits             node=%d time=%d\n",
			rep.NodeLimitHits, rep.TimeLimitHits)
		if rep.ImprovePasses > 0 {
			fmt.Fprintf(&b, "  improvement passes     %d accepted of %d (%.1f%%)\n",
				rep.ImproveOK, rep.ImprovePasses,
				100*float64(rep.ImproveOK)/float64(rep.ImprovePasses))
		}
		if len(rep.FirstObj) > 0 {
			fmt.Fprintf(&b, "  objective convergence  first mean=%.2f -> final mean=%.2f (Δ=%.2f)\n",
				mean(rep.FirstObj), mean(rep.FinalObj), mean(rep.FirstObj)-mean(rep.FinalObj))
		}
		if len(rep.ModelTasks) > 0 {
			fmt.Fprintf(&b, "  model size tasks       p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
				percentile(rep.ModelTasks, 0.50), percentile(rep.ModelTasks, 0.90),
				percentile(rep.ModelTasks, 0.99), maxOf(rep.ModelTasks))
		}
		if rep.WarmSolves > 0 {
			fmt.Fprintf(&b, "  warm-start hit rate    %7.1f%%  (%d seeded of %d hinted solves)\n",
				100*float64(rep.WarmSeeded)/float64(rep.WarmSolves), rep.WarmSeeded, rep.WarmSolves)
		}
	}

	if rep.Samples > 0 {
		b.WriteString("\nsim time-series\n")
		fmt.Fprintf(&b, "  samples                %8d\n", rep.Samples)
		fmt.Fprintf(&b, "  busy map slots         mean=%.1f peak=%.0f\n", rep.BusyMap.mean(), rep.BusyMap.peak)
		fmt.Fprintf(&b, "  busy reduce slots      mean=%.1f peak=%.0f\n", rep.BusyReduce.mean(), rep.BusyReduce.peak)
		fmt.Fprintf(&b, "  waiting map tasks      mean=%.1f peak=%.0f\n", rep.WaitingMap.mean(), rep.WaitingMap.peak)
		fmt.Fprintf(&b, "  waiting reduce tasks   mean=%.1f peak=%.0f\n", rep.WaitingRed.mean(), rep.WaitingRed.peak)
		fmt.Fprintf(&b, "  outstanding jobs       mean=%.1f peak=%.0f\n", rep.Outstanding.mean(), rep.Outstanding.peak)
	}

	if len(rep.Hists) > 0 {
		b.WriteString("\nhistograms\n")
		for _, name := range sortedKeysH(rep.Hists) {
			h := rep.Hists[name]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / h.Count
			}
			fmt.Fprintf(&b, "  %-22s n=%.0f mean=%.2f p50=%.2f p90=%.2f p95=%.2f p99=%.2f max=%.2f\n",
				name, h.Count, mean, h.P50, h.P90, h.P95, h.P99, h.Max)
		}
	}

	routed := rep.Routed
	if c := int(rep.Counters[CounterShardRouted]); c > routed {
		routed = c
	}
	if routed > 0 {
		b.WriteString("\nadmission routing\n")
		fmt.Fprintf(&b, "  jobs routed            %8d\n", routed)
		for _, k := range sortedKeys(rep.RouteByShard) {
			n := rep.RouteByShard[k]
			fmt.Fprintf(&b, "  shard %-17s %8d  (%.1f%%)\n", k, n,
				100*float64(n)/float64(rep.Routed))
		}
		if rejected := int(rep.Counters[CounterShardRejected]); rejected > 0 {
			fmt.Fprintf(&b, "  rejected               %8d\n", rejected)
		}
	}

	if rep.Attributions > 0 {
		b.WriteString("\ndeadline-miss attribution\n")
		fmt.Fprintf(&b, "  attributed misses      %8d\n", rep.Attributions)
		for _, k := range sortedKeys(rep.AttrByClass) {
			n := rep.AttrByClass[k]
			fmt.Fprintf(&b, "  class %-17s %8d  (%.1f%%)\n", k, n,
				100*float64(n)/float64(rep.Attributions))
		}
		for _, k := range sortedKeys(rep.AttrByOutcome) {
			fmt.Fprintf(&b, "  outcome %-15s %8d\n", k, rep.AttrByOutcome[k])
		}
		if len(rep.AttrLateness) > 0 {
			fmt.Fprintf(&b, "  lateness ms            p50=%.0f p90=%.0f max=%.0f\n",
				percentile(rep.AttrLateness, 0.50), percentile(rep.AttrLateness, 0.90),
				maxOf(rep.AttrLateness))
		}
	}

	if rep.RunEnd != nil {
		b.WriteString("\nrun end\n")
		for _, k := range sortedKeysF(rep.RunEnd) {
			if k == "t" {
				continue
			}
			fmt.Fprintf(&b, "  %-22s %8.0f\n", k, rep.RunEnd[k])
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// WriteReport digests a telemetry JSONL stream from r and renders the
// report to w — the one-call form used by cmd/obsreport.
func WriteReport(r io.Reader, w io.Writer) error {
	rep, err := ReadReport(r)
	if err != nil {
		return err
	}
	return rep.Write(w)
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysH(m map[string]HistDigest) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysF(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
