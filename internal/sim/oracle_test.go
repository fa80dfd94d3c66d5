package sim

import (
	"fmt"

	"mrcprm/internal/workload"
)

// scanSample is the sampler the transition counters replaced: it derives a
// sample from a pass over every registered task, every resource and the
// down flags. The counters must agree with it after every Step.
func (s *Simulator) scanSample() sample {
	var p sample
	for r := 0; r < s.cluster.NumResources; r++ {
		p.busyMap += s.ledger.mapUse[r]
		p.busyRed += s.ledger.redUse[r]
	}
	for _, st := range s.byKey {
		switch {
		case st.completed:
		case st.started:
			p.running++
		case st.scheduled:
			if st.task.Type == workload.MapTask {
				p.waitMap++
			} else {
				p.waitRed++
			}
		}
	}
	p.outstanding = s.metrics.JobsArrived - s.metrics.JobsCompleted - s.metrics.JobsAbandoned
	for _, d := range s.down {
		if d {
			p.down++
		}
	}
	return p
}

// scanOutstandingJobs is OutstandingJobs as it was: a pass over every job
// ever registered.
func (s *Simulator) scanOutstandingJobs() int {
	n := 0
	for _, js := range s.byJob {
		if js.left > 0 && !js.abandoned {
			n++
		}
	}
	return n
}

// scanPromised derives the ledger's promised demand per resource — slots by
// type and memory — from a pass over every placed, not yet started task.
func (s *Simulator) scanPromised() (mapP, redP, memP []int64) {
	n := s.cluster.NumResources
	mapP, redP = make([]int64, n), make([]int64, n)
	if s.cluster.MemCapacity > 0 {
		memP = make([]int64, n)
	}
	for _, st := range s.byKey {
		if !st.scheduled || st.started {
			continue
		}
		if st.task.Type == workload.MapTask {
			mapP[st.res] += st.task.Req
		} else {
			redP[st.res] += st.task.Req
		}
		if memP != nil {
			memP[st.res] += st.task.Mem
		}
	}
	return mapP, redP, memP
}

// checkPromised compares the ledger's promised demand per resource — what
// it holds beyond what is running — with a scan.
func checkPromised(dim string, held, use, scan []int64) error {
	for r := range scan {
		if got := held[r] - use[r]; got != scan[r] {
			return fmt.Errorf("resource %d: promised %s demand %d, scan %d", r, dim, got, scan[r])
		}
	}
	return nil
}

// CheckCounters compares everything the simulator keeps by counting
// transitions — the seven sample fields, the ledger's promised demand per
// resource, OutstandingJobs and each job's uncompleted-map, placed-or-running
// and running counts — with a
// scan of the state it summarises. It is the hook the policy-driven oracle
// runs in the external test package call after every Step.
func CheckCounters(s *Simulator) error {
	if got, want := s.sample(), s.scanSample(); got != want {
		return fmt.Errorf("sample counters %+v, scan %+v", got, want)
	}
	mapP, redP, memP := s.scanPromised()
	if err := checkPromised("map", s.ledger.mapHeld, s.ledger.mapUse, mapP); err != nil {
		return err
	}
	if err := checkPromised("reduce", s.ledger.redHeld, s.ledger.redUse, redP); err != nil {
		return err
	}
	if err := checkPromised("memory", s.ledger.memHeld, s.ledger.memUse, memP); err != nil {
		return err
	}
	if got, want := s.OutstandingJobs(), s.scanOutstandingJobs(); got != want {
		return fmt.Errorf("OutstandingJobs %d, scan %d", got, want)
	}
	for j, js := range s.byJob {
		var mapsLeft, running int
		var placed [2]int
		for _, st := range js.states(s) {
			if st.completed {
				continue
			}
			if st.task.Type == workload.MapTask {
				mapsLeft++
			}
			if st.scheduled {
				placed[st.task.Type]++
			}
			if st.started {
				running++
			}
		}
		if js.mapsLeft != mapsLeft {
			return fmt.Errorf("job %d: uncompleted-map count %d, scan %d", j.ID, js.mapsLeft, mapsLeft)
		}
		if js.placed != placed {
			return fmt.Errorf("job %d: placed-or-running counts %v, scan %v", j.ID, js.placed, placed)
		}
		if js.running != running {
			return fmt.Errorf("job %d: running count %d, scan %d", j.ID, js.running, running)
		}
	}
	return nil
}
