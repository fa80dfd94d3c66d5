package rmkit

import (
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// listPolicies is the table of built-in list baselines, each one
// ListScheduler. They differ in two things only: the active queue's order,
// and whether MinEDF-WC's ARIA minimum-allocation pass runs before the
// shared work-conserving pass. Every row serves jobs work-conservingly with
// the standard MapReduce rules (reduce tasks only after all of the job's
// maps, earliest start times respected).
//
//   - fifo is the deadline-blind best-effort dispatcher the paper's
//     introduction contrasts SLA-aware resource management against: jobs
//     in arrival order. Comparing against it shows how much of a policy's
//     SLA performance comes from deadline awareness rather than from mere
//     work conservation.
//   - edf serves jobs in deadline order with no allocation model:
//     deadline-aware like MinEDF-WC, model-free like FIFO, so the three
//     together isolate what MinEDF-WC's ARIA model adds to deadline
//     ordering alone.
//   - minedf is MinEDF-WC of Verma et al., the baseline the paper compares
//     MRCP-RM against (Section VI.B.1, reference [8]): in EDF order each
//     job first receives the minimum map and reduce slots its ARIA model
//     predicts it needs to finish by its deadline (minAllocation), then
//     spare slots go to active jobs in EDF order. A slot returns to the
//     pool at the next task boundary, so a newly arriving job's minimum
//     allocation takes precedence over spare-slot use.
var listPolicies = []struct {
	name, display string
	less          func(a, b *JobState) bool
	minAlloc      bool
}{
	{"fifo", "FIFO", byArrival, false},
	{"edf", "EDF", byDeadline, false},
	{"minedf", "MinEDF-WC", byDeadline, true},
}

func init() {
	for _, p := range listPolicies {
		dispatch := (*ListScheduler).workConserving
		if p.minAlloc {
			dispatch = (*ListScheduler).minAllocThenWorkConserving
		}
		Register(p.name, func(cluster sim.Cluster, opts Options) (sim.ResourceManager, error) {
			ls := NewListScheduler(p.name, p.display, cluster, p.less, dispatch)
			if opts.Retry != nil {
				ls.Retry = *opts.Retry
			}
			return ls, nil
		})
	}
}

// byArrival orders jobs by arrival time, so admissions from the deferred
// queue slot in by arrival for determinism.
func byArrival(a, b *JobState) bool { return a.Job.Arrival < b.Job.Arrival }

func byDeadline(a, b *JobState) bool { return a.Job.Deadline < b.Job.Deadline }

// workConserving fills free slots in queue order.
func (ls *ListScheduler) workConserving(ctx sim.Context) error {
	for _, js := range ls.Tracker.Active() {
		if err := ls.DispatchJob(ctx, js, -1, -1); err != nil {
			return err
		}
	}
	return nil
}

// minAllocThenWorkConserving fills free slots in two passes: the first
// caps each job at its minimum allocation, recomputed in queue order from
// its remaining work and time to deadline (dispatching one job leaves
// another's inputs as they were), the second is work-conserving.
func (ls *ListScheduler) minAllocThenWorkConserving(ctx sim.Context) error {
	now := ctx.Now()
	for _, js := range ls.Tracker.Active() {
		mapCap, redCap := ls.minAllocation(js, now)
		if err := ls.DispatchJob(ctx, js, mapCap, redCap); err != nil {
			return err
		}
	}
	return ls.workConserving(ctx)
}

// phaseProfile summarizes one phase (map or reduce) of a job.
type phaseProfile struct {
	n   int64 // remaining tasks
	avg float64
	max float64
}

// duration estimates the phase duration on k slots using the ARIA
// average-of-bounds model: with n tasks of mean duration avg and maximum
// max, the phase lasts between n*avg/k (lower) and (n-1)*avg/k + max
// (upper). k must be positive when n > 0.
func (p phaseProfile) duration(k int64) float64 {
	if p.n == 0 {
		return 0
	}
	lower := float64(p.n) * p.avg / float64(k)
	upper := float64(p.n-1)*p.avg/float64(k) + p.max
	return (lower + upper) / 2
}

func profileOf(tasks []*workload.Task) phaseProfile {
	p := phaseProfile{n: int64(len(tasks))}
	if p.n == 0 {
		return p
	}
	var sum int64
	for _, t := range tasks {
		sum += t.Exec
		if f := float64(t.Exec); f > p.max {
			p.max = f
		}
	}
	p.avg = float64(sum) / float64(p.n)
	return p
}

// minAllocation finds the smallest (s_m, s_r) pair, by total slots, whose
// ARIA estimate meets the deadline from now on; if the deadline is
// unreachable even with the whole cluster, it returns the maximum
// allocation (the job is served best effort, matching MinEDF-WC's behavior
// for infeasible jobs).
func (ls *ListScheduler) minAllocation(js *JobState, now int64) (int64, int64) {
	mapsP := profileOf(js.PendingMaps)
	redsP := profileOf(js.PendingReds)
	totalMap := ls.Cluster.TotalMapSlots()
	totalRed := ls.Cluster.TotalReduceSlots()
	budget := float64(js.Job.Deadline - now)
	if left := js.Sim.MapsLeft(); left > 0 && len(js.PendingMaps) < left {
		// Maps still running contribute to the barrier; approximate their
		// remainder with one average map duration.
		budget -= mapsP.avg
	}

	bestM, bestR := int64(-1), int64(-1)
	bestTotal := int64(1<<63 - 1)
	maxM := min(totalMap, max(mapsP.n, 1))
	for sm := int64(1); sm <= maxM; sm++ {
		remain := budget - mapsP.duration(sm)
		if remain < 0 {
			continue
		}
		var sr int64
		if redsP.n > 0 {
			sr = -1
			maxR := min(totalRed, redsP.n)
			for k := int64(1); k <= maxR; k++ {
				if redsP.duration(k) <= remain {
					sr = k
					break
				}
			}
			if sr < 0 {
				continue
			}
		}
		if sm+sr < bestTotal {
			bestM, bestR, bestTotal = sm, sr, sm+sr
		}
	}
	if bestM < 0 {
		// Infeasible: run wide open.
		bestM = min(totalMap, max(mapsP.n, 1))
		bestR = min(totalRed, redsP.n)
	}
	return bestM, bestR
}
