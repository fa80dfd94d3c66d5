package shard

import (
	"errors"
	"strconv"
	"time"

	"mrcprm/internal/obs"
	"mrcprm/internal/service"
)

// Rebalancer invariants (see DESIGN §8):
//
//   - Only still-QUEUED jobs move. A job the hot shard's run loop already
//     drained into its simulator cannot be withdrawn (ErrNotQueued) and is
//     simply skipped — migration never preempts running work.
//   - A migration is journaled on both sides: a withdraw record on the hot
//     segment, then a tagged submit on the cold one carrying the job's
//     original global ID. Recovery rebuilds the overlay from the tags, and
//     a crash between the two records leaves an orphan that shard.Recover
//     re-places through the normal routing path (no job is lost).
//   - The whole migration runs under the router lock, and CloseIntake
//     takes that lock after stopping the rebalancer, so a close can never
//     interleave with a half-done migration and strand a withdrawn job.
//   - The rebalancer only moves jobs that are feasible on the target
//     partition; an infeasible candidate stays hot rather than trading a
//     queued job for a certain rejection.

// rebalanceLoop runs Rebalance every cfg.RebalanceEvery until stop.
func (r *Router) rebalanceLoop() {
	t := time.NewTicker(r.cfg.RebalanceEvery)
	defer t.Stop()
	for {
		select {
		case <-r.rebalStop:
			return
		case <-t.C:
			r.Rebalance()
		}
	}
}

// stopRebalance halts the periodic rebalancer (idempotent).
func (r *Router) stopRebalance() {
	r.rebalOnce.Do(func() { close(r.rebalStop) })
}

// rebalanceRatio is the hot/cold pending-work ratio that triggers a
// migration round.
const rebalanceRatio = 2

// Rebalance runs one rebalancing round: while the hottest shard holds more
// than rebalanceRatio times the coldest shard's pending work, migrate the
// newest still-queued, target-feasible job from hot to cold. Returns how
// many jobs moved.
func (r *Router) Rebalance() int {
	moved := 0
	for r.rebalanceOnce() {
		moved++
	}
	return moved
}

// rebalanceOnce migrates at most one job, reporting whether it did (and
// therefore whether another round might help).
func (r *Router) rebalanceOnce() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	hot, cold := 0, 0
	for s := 1; s < r.n; s++ {
		if r.work[s] > r.work[hot] {
			hot = s
		}
		if r.work[s] < r.work[cold] {
			cold = s
		}
	}
	if hot == cold || r.work[hot] < rebalanceRatio*(r.work[cold]+1) {
		return false
	}
	// Newest queued first: the oldest jobs are closest to being drained
	// (and to their deadlines), so they stay put.
	ids := r.engines[hot].QueuedIDs()
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		spec, ok := r.engines[hot].QueuedSpec(id)
		if !ok {
			continue // drained since QueuedIDs
		}
		probe, err := spec.Job(0)
		if err != nil || !feasibleOn(r.parts[cold], probe) {
			continue
		}
		w := probe.TotalWork()
		// Don't overshoot: moving w must not make cold hotter than hot.
		if r.work[cold]+w > r.work[hot]-w {
			continue
		}
		spec, tag, tagged, err := r.engines[hot].Withdraw(id)
		if errors.Is(err, service.ErrNotQueued) {
			continue // drained in the window; too late, skip
		}
		if err != nil {
			return false // journal failure: stop rebalancing, nothing moved
		}
		gid := int64(id)*int64(r.n) + int64(hot)
		if tagged {
			gid = tag // migrating again: keep the original identity
		}
		newLocal, serr := r.engines[cold].SubmitTagged(spec, gid)
		if serr != nil {
			// The withdraw is already journaled; re-home the job rather
			// than lose it — back to hot first, then anywhere.
			if newLocal, serr = r.engines[hot].SubmitTagged(spec, gid); serr != nil {
				for s := 0; s < r.n && serr != nil; s++ {
					cold = s
					newLocal, serr = r.engines[s].SubmitTagged(spec, gid)
				}
				if serr != nil {
					return false // every shard refused; the orphan is recovered from the journal
				}
			} else {
				cold = hot
			}
		}
		delete(r.moved, ref{shard: hot, local: id})
		r.overlay[gid] = ref{shard: cold, local: newLocal}
		r.moved[ref{shard: cold, local: newLocal}] = gid
		if cold != hot {
			r.work[hot] -= w
			if r.work[hot] < 0 {
				r.work[hot] = 0
			}
			r.work[cold] += w
			r.tel.Add(obs.CounterShardMigrated, 1)
			r.tel.SetGauge(obs.GaugeShardPendingWorkPrefix+strconv.Itoa(hot), r.work[hot])
			r.tel.SetGauge(obs.GaugeShardPendingWorkPrefix+strconv.Itoa(cold), r.work[cold])
			r.tel.Emit(r.engines[cold].NowMS(), obs.LayerShard, "migrate",
				obs.I64("job", gid), obs.I64("from", int64(hot)), obs.I64("to", int64(cold)),
				obs.I64("workMs", w))
			return true
		}
		return false // bounced back to hot: no balance change, stop
	}
	return false
}
