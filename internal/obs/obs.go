// Package obs is the zero-dependency telemetry core of this repository:
// structured events, counters and histograms, funneled into a pluggable
// Sink (typically the JSONL writer in sink.go).
//
// Design rules:
//
//   - Every event is stamped with *simulated* time, so two seeded runs of
//     the same workload emit identical event streams. Wall-clock-derived
//     quantities (solve latency, reschedule durations) are carried in
//     fields whose keys start with "wall_"; consumers that need
//     byte-for-byte determinism strip exactly those fields.
//   - A nil *Telemetry is a valid, fully inert instance: every method is
//     nil-receiver safe and returns immediately. Instrumented hot paths
//     guard field construction behind Enabled() so a run without a sink
//     pays only a nil check.
//   - Field order inside an event is the order the instrumentation wrote
//     them; the JSONL encoder never reorders, so output is reproducible.
package obs

import (
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Layer names used across the repository.
const (
	LayerSolver  = "solver"
	LayerManager = "manager"
	LayerSim     = "sim"
	LayerShard   = "shard"
)

// Well-known counter and gauge names shared between the service engine and
// its metrics consumers (/v1/metrics readers, smoke scripts).
const (
	// CounterServiceShed counts submissions rejected by the bounded-intake
	// backpressure (Config.MaxPending).
	CounterServiceShed = "service_shed_total"
	// CounterShardRouted / CounterShardRejected count admission-router
	// placements and every-shard-shed rejections.
	CounterShardRouted   = "shard_routed"
	CounterShardRejected = "shard_rejected"
	// GaugeShardPendingWorkPrefix + shard index names each shard engine's
	// pending work ms in the Prometheus exposition. It is not a registry
	// gauge: service.WriteProm renders it from the snapshot's shard views.
	GaugeShardPendingWorkPrefix = "shard_pending_work_ms_"
	// HistWallRoute is the wall-clock latency of one router admission
	// decision (placement + shard Submit), in ms; kept distinct from
	// HistWallAdmission, which the shard's own Submit observes inside it.
	HistWallRoute = "wall_route_ms"
	// CounterWarmStartHinted counts solves entered with a warm-start hint;
	// CounterWarmStartSeeded counts those whose hint repair produced the
	// first incumbent (the warm-start hit rate's numerator).
	CounterWarmStartHinted = "warmstart_hinted"
	CounterWarmStartSeeded = "warmstart_seeded"
)

// Well-known histogram names. Names without the "wall_" prefix hold pure
// simulated-time quantities and are deterministic run to run; "wall_" names
// hold wall-clock latencies that vary.
const (
	// HistJobE2E is per-job end-to-end latency: completion minus arrival,
	// in simulated ms.
	HistJobE2E = "job_e2e_ms"
	// HistJobLateness is per-job completion minus deadline in simulated
	// ms; negative values (early finishes) land in the lowest bucket but
	// keep the true Min/Sum.
	HistJobLateness = "job_lateness_ms"
	// HistWallAdmission is the wall-clock latency of one service
	// admission decision (Submit), in ms.
	HistWallAdmission = "wall_admission_ms"
	// HistWallSolve is the wall-clock latency of one CP solve, in ms.
	HistWallSolve = "wall_solve_ms"
	// HistWallReschedule is the wall-clock duration of one full manager
	// reschedule (model build + solve + install), in ms.
	HistWallReschedule = "wall_reschedule_ms"
	// HistSolveModelTasks is the size of each reschedule's CP model in
	// tasks (frozen + schedulable) — a pure simulated-state quantity, and
	// the number the rolling horizon window is meant to bound.
	HistSolveModelTasks = "solve_model_tasks"
)

type fieldKind uint8

const (
	kindInt fieldKind = iota
	kindFloat
	kindStr
	kindBool
)

// Field is one typed key-value pair of an event. Keys starting with "wall_"
// mark wall-clock-derived values that vary run to run; everything else must
// be a pure function of the simulated execution.
type Field struct {
	Key  string
	kind fieldKind
	i    int64
	f    float64
	s    string
	b    bool
}

// I64 makes an integer field.
func I64(key string, v int64) Field { return Field{Key: key, kind: kindInt, i: v} }

// Int makes an integer field from an int.
func Int(key string, v int) Field { return I64(key, int64(v)) }

// F64 makes a float field.
func F64(key string, v float64) Field { return Field{Key: key, kind: kindFloat, f: v} }

// Str makes a string field.
func Str(key, v string) Field { return Field{Key: key, kind: kindStr, s: v} }

// Bool makes a boolean field.
func Bool(key string, v bool) Field { return Field{Key: key, kind: kindBool, b: v} }

// Wall makes a wall-clock duration field in milliseconds; the "wall_" key
// prefix is added so determinism-aware consumers can strip it.
func Wall(key string, d time.Duration) Field {
	return F64("wall_"+key, float64(d.Nanoseconds())/1e6)
}

// Event is one telemetry record: a simulated timestamp, the emitting layer,
// an event kind, and ordered fields.
type Event struct {
	SimMS  int64
	Layer  string
	Kind   string
	Fields []Field
}

// AppendJSON renders the event as a single-line JSON object with
// deterministic key order: t, layer, kind, then the fields in order.
func (e *Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendInt(buf, e.SimMS, 10)
	buf = append(buf, `,"layer":`...)
	buf = appendJSONString(buf, e.Layer)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, e.Kind)
	for i := range e.Fields {
		f := &e.Fields[i]
		buf = append(buf, ',')
		buf = appendJSONString(buf, f.Key)
		buf = append(buf, ':')
		switch f.kind {
		case kindInt:
			buf = strconv.AppendInt(buf, f.i, 10)
		case kindFloat:
			buf = appendJSONFloat(buf, f.f)
		case kindStr:
			buf = appendJSONString(buf, f.s)
		case kindBool:
			buf = strconv.AppendBool(buf, f.b)
		}
	}
	return append(buf, '}')
}

func appendJSONFloat(buf []byte, v float64) []byte {
	// JSON has no NaN/Inf; clamp to null to keep every line parseable.
	if v != v || v > 1.7e308 || v < -1.7e308 {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

const hexDigits = "0123456789abcdef"

// Sink receives emitted events. Implementations must tolerate concurrent
// Emit calls.
type Sink interface {
	Emit(e *Event)
}

// Flusher is implemented by sinks with buffered output.
type Flusher interface {
	Flush() error
}

// Telemetry is the instrumentation handle threaded through the solver,
// manager, and simulator layers. A nil *Telemetry is inert; obtain a live
// one with New.
type Telemetry struct {
	sink Sink

	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*Histogram
}

// New returns a telemetry core writing to the sink, or nil (the inert
// instance) when sink is nil.
func New(sink Sink) *Telemetry {
	if sink == nil {
		return nil
	}
	return &Telemetry{
		sink:     sink,
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether events will actually be recorded. Hot paths guard
// field construction behind it.
func (t *Telemetry) Enabled() bool { return t != nil && t.sink != nil }

// Emit records one event. Safe on a nil receiver.
func (t *Telemetry) Emit(simMS int64, layer, kind string, fields ...Field) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(&Event{SimMS: simMS, Layer: layer, Kind: kind, Fields: fields})
}

// Add accumulates a named counter. Safe on a nil receiver.
func (t *Telemetry) Add(name string, delta int64) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Snapshot returns a copy of the counter registry, for metrics exposition
// endpoints; nil when telemetry is disabled. Safe on a nil receiver and
// under concurrent Add calls.
func (t *Telemetry) Snapshot() map[string]int64 {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.counters)
}

// Observe records one value into the named streaming histogram, creating it
// on first use. Histogram names follow the field-key convention: names
// starting with "wall_" hold wall-clock-derived values that vary run to
// run; all other histograms must be pure functions of the simulated
// execution. Safe on a nil receiver (the guard path allocates nothing).
func (t *Telemetry) Observe(name string, v float64) {
	if !t.Enabled() {
		return
	}
	t.Hist(name).Observe(v)
}

// Hist returns the named histogram, creating it on first use, or nil (the
// inert histogram) when telemetry is disabled. Hot paths may cache the
// returned pointer; Observe on it stays safe either way.
func (t *Telemetry) Hist(name string) *Histogram {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = &Histogram{}
		t.hists[name] = h
	}
	t.mu.Unlock()
	return h
}

// HistSnapshots returns snapshots of every registered histogram, sorted by
// name (set on each snapshot). Nil when telemetry is disabled.
func (t *Telemetry) HistSnapshots() []HistSnapshot {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	names := sortedKeys(t.hists)
	hs := make([]*Histogram, 0, len(names))
	for _, n := range names {
		hs = append(hs, t.hists[n])
	}
	t.mu.Unlock()
	out := make([]HistSnapshot, len(hs))
	for i, h := range hs {
		out[i] = h.Snapshot()
		out[i].Name = names[i]
	}
	return out
}

// EmitSummary emits one "counters" event with the counter names in sorted
// order, plus one "hist" event per histogram
// carrying its count and quantile estimates. Typically called once at the
// end of a run with the final simulated time. For histograms named with
// the "wall_" prefix, every value-derived key is itself "wall_"-prefixed
// so determinism-aware consumers strip them like any wall field.
func (t *Telemetry) EmitSummary(simMS int64) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	cf := sortedFields(t.counters)
	t.mu.Unlock()
	if len(cf) > 0 {
		t.Emit(simMS, "obs", "counters", cf...)
	}
	for _, s := range t.HistSnapshots() {
		if s.Count == 0 {
			continue
		}
		pfx := ""
		if strings.HasPrefix(s.Name, "wall_") {
			pfx = "wall_"
		}
		t.Emit(simMS, "obs", "hist",
			Str("name", s.Name),
			I64("count", s.Count),
			F64(pfx+"sum", s.Sum),
			F64(pfx+"min", s.Min),
			F64(pfx+"max", s.Max),
			F64(pfx+"p50", s.Quantile(0.50)),
			F64(pfx+"p90", s.Quantile(0.90)),
			F64(pfx+"p95", s.Quantile(0.95)),
			F64(pfx+"p99", s.Quantile(0.99)),
		)
	}
}

func sortedFields(m map[string]int64) []Field {
	names := sortedKeys(m)
	fs := make([]Field, len(names))
	for i, n := range names {
		fs[i] = I64(n, m[n])
	}
	return fs
}

// Flush forces buffered sink output to its writer. Safe on a nil receiver.
func (t *Telemetry) Flush() error {
	if !t.Enabled() {
		return nil
	}
	if f, ok := t.sink.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
