package cp

// Hint is a prior assignment used to warm-start a solve: typically the
// timetable the caller installed after the previous solve, re-indexed onto
// the freshly built model. The solver runs its first descent as a *repair*
// of the hint — every hinted interval aims at its hinted start (clamped
// into its current bounds) and prefers its hinted resource, while unhinted
// intervals (new arrivals) pack greedily as usual — so the incumbent opens
// at the prior round's objective instead of a from-scratch greedy one.
//
// A hinted solve is repair-and-improve only: when the hint descent seeds
// the incumbent, the solver skips the mandatory full improvement pass and
// the branch-and-bound proof phase, trusting the proof work done by the
// cold solves it interleaves with. Its result is therefore at most
// StatusFeasible unless the repaired objective is zero. Callers that need
// optimality proofs on every solve should not pass a hint.
//
// Determinism: a nil Hint leaves every search path bit-identical to
// earlier releases. With a hint, the solve is still a deterministic
// function of (model, params, hint) under a node-limit-only budget, so
// warm-started runs are self-consistent run to run.
type Hint struct {
	// Starts[i] is the suggested start of the interval with ID i, or -1
	// when the interval carries no hint. Must cover every interval.
	Starts []int64
	// Res[i] is the suggested resource of the interval with ID i, or -1.
	// May be nil when the model has no matchmaking variables.
	Res []int
}

// covers reports whether the hint is usable for a model with n intervals.
func (h *Hint) covers(n int) bool {
	return h != nil && len(h.Starts) == n && (h.Res == nil || len(h.Res) == n)
}

// start returns the hinted start of interval id, or -1.
func (h *Hint) start(id int) int64 {
	if h == nil || id >= len(h.Starts) {
		return -1
	}
	return h.Starts[id]
}

// res returns the hinted resource of interval id, or -1.
func (h *Hint) res(id int) int {
	if h == nil || h.Res == nil || id >= len(h.Res) {
		return -1
	}
	return h.Res[id]
}
