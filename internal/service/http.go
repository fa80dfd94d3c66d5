package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/slo"
	"mrcprm/internal/workload"
)

// Backend is the scheduler the HTTP handler drives: in cmd/mrcpd a
// shard.Router over N engines, N >= 1. Job IDs are whatever Submit
// returned; resource indices are global.
type Backend interface {
	// Submit must not keep spec's slices once it returns: the handler
	// decodes every POST into a recycled spec.
	Submit(spec workload.JobSpec) (int64, error)
	Job(id int64) (JobStatus, bool)
	Jobs() []JobStatus
	Trace(id int64) (events []slo.TraceEvent, dropped int, ok bool)
	Schedule() []TaskPlacement
	Metrics() Snapshot
	WriteProm(w io.Writer) error
	ApplyFaults(spec FaultSpec) error
	// InjectOutage returns the window it scheduled, which may start later
	// than asked (see Engine.InjectOutage).
	InjectOutage(res int, downAt, upAt int64) (downAtMS, upAtMS int64, err error)
	NowMS() int64
	Health() Health
	// Shards is the partition count, reported as "shards" on the healthz,
	// readyz and run bodies.
	Shards() int

	Start() error
	CloseIntake()
	Stop()
	Done() <-chan struct{}
	Wait() error
}

// Health is the liveness view behind GET /healthz. Producing it never takes
// the simulator lock, so a probe is answered while a solve is in flight.
type Health struct {
	Mode     string
	Running  bool
	Finished bool
	Closed   bool
}

// NewBackendHandler exposes a backend over HTTP/JSON:
//
//	POST /v1/jobs          submit a workload.JobSpec; 202 {"id":N}
//	GET  /v1/jobs          every submission's status (no placements)
//	GET  /v1/jobs/{id}     one submission, with placements and predicted
//	                       lateness
//	GET  /v1/jobs/{id}/trace  one submission's lifecycle timeline
//	GET  /v1/schedule      the current placement plan
//	GET  /v1/metrics       engine + manager + telemetry counters + SLO burn
//	                       (fleet aggregates plus a per-shard breakdown)
//	GET  /metrics          Prometheus text exposition (format 0.0.4)
//	POST /v1/admin/faults  swap the fault plan or inject an outage
//	POST /v1/admin/run     start the run loop (virtual mode);
//	                       {"close":true} also closes the intake
//	GET  /healthz          liveness + run state
//	GET  /readyz           readiness: 503 while draining or shedding
//
// Error bodies are {"error":"..."}: 400 malformed, 404 unknown job, 409 a
// second start or a fault request after the run ended, 422 admission
// rejection, 429 shed by backpressure (with a Retry-After header), 500
// journal write failure, 503 intake closed or run ended.
func NewBackendHandler(b Backend) http.Handler {
	s := &server{b: b}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	mux.HandleFunc("GET /v1/schedule", s.schedule)
	mux.HandleFunc("GET /v1/metrics", s.metrics)
	mux.HandleFunc("GET /metrics", s.prom)
	mux.HandleFunc("POST /v1/admin/faults", s.faults)
	mux.HandleFunc("POST /v1/admin/run", s.run)
	return mux
}

type server struct{ b Backend }

// maxBodyBytes caps POST bodies: a job spec or fault request is a few KB at
// most, so anything near the cap is malformed or hostile.
const maxBodyBytes = 1 << 20

// decodeBody reads a POST body of at most maxBodyBytes into v, strictly
// (decodeStrict).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeStrict reads exactly one JSON value of v's shape from r, with no
// unknown fields and nothing but whitespace after it.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// withShards adds the partition count to a body.
func (s *server) withShards(body map[string]any) map[string]any {
	body["shards"] = s.b.Shards()
	return body
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	h := s.b.Health()
	writeJSON(w, http.StatusOK, s.withShards(map[string]any{
		"status":   "ok",
		"mode":     h.Mode,
		"running":  h.Running,
		"finished": h.Finished,
		"closed":   h.Closed,
	}))
}

// readyz is the orchestrator-facing readiness probe: 200 while the backend
// should receive traffic, 503 with the reason Snapshot.Ready gives for the
// same snapshot GET /v1/metrics serves.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.b.Metrics().Ready(); !ok {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, s.withShards(map[string]any{"ready": true}))
}

// specPool recycles POST /v1/jobs decode targets, so a body decodes into
// slices earlier POSTs already grew.
var specPool = sync.Pool{New: func() any { return new(workload.JobSpec) }}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	spec := specPool.Get().(*workload.JobSpec)
	defer specPool.Put(spec)
	// Fields the body leaves out must read as absent, not as the last
	// POST's values.
	*spec = workload.JobSpec{
		MapExecMS:    spec.MapExecMS[:0],
		ReduceExecMS: spec.ReduceExecMS[:0],
		MapMem:       spec.MapMem[:0],
		ReduceMem:    spec.ReduceMem[:0],
	}
	if err := decodeBody(w, r, spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing job spec: %w", err))
		return
	}
	id, err := s.b.Submit(*spec)
	var oe *OverloadError
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(oe.RetryAfter)))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": err.Error(), "pending": oe.Pending, "maxPending": oe.Max,
			"retryAfterMs": oe.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, ErrJournal):
		writeError(w, http.StatusInternalServerError, err)
	case err != nil:
		var ae *core.AdmissionError
		if errors.As(err, &ae) {
			writeJSON(w, http.StatusUnprocessableEntity,
				map[string]any{"id": id, "state": StateRejected, "error": err.Error()})
			return
		}
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": StateQueued})
	}
}

// retryAfterSeconds renders a backoff as whole seconds for the Retry-After
// header, rounding up so clients never retry early.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.b.Jobs()
	if jobs == nil {
		jobs = []JobStatus{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

// jobID parses the {id} path segment, answering 400 itself when it is not a
// number.
func jobID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, ok := s.b.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) schedule(w http.ResponseWriter, r *http.Request) {
	ps := s.b.Schedule()
	if ps == nil {
		ps = []TaskPlacement{}
	}
	writeJSON(w, http.StatusOK, ps)
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.Metrics())
}

// prom serves the Prometheus scrape endpoint. The exposition is rendered
// into a buffer first so a mid-write failure cannot leave a scraper with a
// truncated 200 response.
func (s *server) prom(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.b.WriteProm(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// trace serves one job's lifecycle timeline from the SLO monitor's bounded
// per-job event ring.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	events, dropped, ok := s.b.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for job %d", id))
		return
	}
	if events == nil {
		events = []slo.TraceEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobId": id, "dropped": dropped, "events": events,
	})
}

// faultRequest is the body of POST /v1/admin/faults. With DurationMS > 0 it
// injects one outage window; otherwise it swaps the per-attempt fault plan
// (all-zero probabilities disable injection).
type faultRequest struct {
	// Per-attempt plan.
	FailRate      float64 `json:"failRate"`
	StragglerProb float64 `json:"stragglerProb"`
	Seed          uint64  `json:"seed"`
	// Outage window.
	Resource   int   `json:"resource"`
	DelayMS    int64 `json:"delayMs"`
	DurationMS int64 `json:"durationMs"`
}

func (s *server) faults(w http.ResponseWriter, r *http.Request) {
	var req faultRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing fault request: %w", err))
		return
	}
	// Both kinds are journaled before they take effect, so they replay at
	// the same simulated instant on recovery; only a failed append is a 500.
	fail := func(err error) {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrJournal):
			status = http.StatusInternalServerError
		case errors.Is(err, ErrFinished):
			status = http.StatusConflict
		}
		writeError(w, status, err)
	}
	if req.DurationMS > 0 {
		now := s.b.NowMS()
		switch {
		case req.DelayMS < 0:
			fail(fmt.Errorf("delayMs %d is negative", req.DelayMS))
			return
		case req.DelayMS > math.MaxInt64-now || req.DurationMS > math.MaxInt64-now-req.DelayMS:
			fail(fmt.Errorf("outage window of delayMs %d and durationMs %d ends past the largest time",
				req.DelayMS, req.DurationMS))
			return
		}
		at := now + req.DelayMS
		// The backend may start the window later than asked (the clock
		// moved on); the reply names the window it scheduled and journaled.
		down, up, err := s.b.InjectOutage(req.Resource, at, at+req.DurationMS)
		if err != nil {
			fail(err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"injected": "outage", "resource": req.Resource,
			"downAtMs": down, "upAtMs": up,
		})
		return
	}
	spec := FaultSpec{FailRate: req.FailRate, StragglerProb: req.StragglerProb, Seed: req.Seed}
	if err := s.b.ApplyFaults(spec); err != nil {
		fail(err)
		return
	}
	if !spec.enabled() {
		writeJSON(w, http.StatusOK, map[string]any{"injected": "none"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"injected": "attempts", "failRate": req.FailRate, "stragglerProb": req.StragglerProb,
	})
}

// runRequest is the body of POST /v1/admin/run.
type runRequest struct {
	// Close also closes the intake, so the run ends once the submitted
	// stream completes (the loadgen virtual-replay flow).
	Close bool `json:"close"`
}

func (s *server) run(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing run request: %w", err))
			return
		}
	}
	err := s.b.Start()
	if err != nil && !req.Close {
		writeError(w, http.StatusConflict, err)
		return
	}
	if req.Close {
		s.b.CloseIntake()
	}
	writeJSON(w, http.StatusOK, s.withShards(map[string]any{
		"started": err == nil, "closed": req.Close,
	}))
}
