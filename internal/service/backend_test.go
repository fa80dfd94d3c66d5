package service

import (
	"io"
	"net/http"

	"mrcprm/internal/slo"
	"mrcprm/internal/workload"
)

// engineBackend serves one engine as a Backend, widening its int job IDs —
// the fake these package tests drive the HTTP handler through. The daemon
// serves a shard.Router; internal/shard tests the handler over that.
type engineBackend struct{ *Engine }

func (b engineBackend) Submit(spec workload.JobSpec) (int64, error) {
	id, err := b.Engine.Submit(spec)
	return int64(id), err
}

func (b engineBackend) Job(id int64) (JobStatus, bool) { return b.Engine.Job(int(id)) }

func (b engineBackend) Trace(id int64) ([]slo.TraceEvent, int, bool) { return b.Engine.Trace(int(id)) }

func (b engineBackend) Shards() int { return 1 }

// WriteProm renders the engine's snapshot with the registry it shares, the
// fields a router's snapshot carries at the top level.
func (b engineBackend) WriteProm(w io.Writer) error {
	snap := b.Metrics()
	snap.Counters = b.cfg.Telemetry.Snapshot()
	return WriteProm(w, snap, b.cfg.Telemetry.HistSnapshots())
}

// engineHandler exposes one engine over the package's HTTP handler.
func engineHandler(e *Engine) http.Handler { return NewBackendHandler(engineBackend{e}) }
