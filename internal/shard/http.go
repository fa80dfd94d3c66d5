package shard

import (
	"net/http"

	"mrcprm/internal/service"
)

// NewHandler exposes the router over the service package's one HTTP handler
// (a Router is a service.Backend), so loadgen and scrapers work against a
// sharded daemon unchanged: job IDs and resource indices are global,
// /v1/metrics and /metrics aggregate the fleet, and the healthz, readyz and
// run bodies carry the shard count.
func NewHandler(r *Router) http.Handler { return service.NewBackendHandler(r) }
