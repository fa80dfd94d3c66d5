package service

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// gatedRM is FIFO behind a gate: it parks inside its first arrival
// callback — inside sim.Step, with the engine's simulator lock held, where a
// CP solve sits — until the gate is released.
type gatedRM struct {
	sim.ResourceManager
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (m *gatedRM) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	m.once.Do(func() { close(m.entered) })
	<-m.release
	return m.ResourceManager.OnJobArrival(ctx, j)
}

// closedEngine returns an unstarted virtual engine with a closed intake of
// three one-task jobs, nine events in all, far fewer than one batch may
// take. wrap builds its manager around FIFO.
func closedEngine(t *testing.T, wrap func(sim.ResourceManager) sim.ResourceManager) *Engine {
	t.Helper()
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	fifo, err := rmkit.New("fifo", cluster, rmkit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Cluster: cluster, RM: wrap(fifo)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range int64(3) {
		if _, err := e.Submit(workload.JobSpec{ArrivalMS: 100 * i, DeadlineMS: 3_600_000, MapExecMS: []int64{1000}}); err != nil {
			t.Fatal(err)
		}
	}
	e.CloseIntake()
	return e
}

// slowRM is FIFO charging twice a batch's worth of scheduling time to every
// arrival.
type slowRM struct{ sim.ResourceManager }

func (m slowRM) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	ctx.AddOverhead(2 * batchOverhead)
	return m.ResourceManager.OnJobArrival(ctx, j)
}

// TestClosedDrainBatches: once the intake is closed, one batch runs the
// whole nine-event stream, unless the manager's measured time ends it after
// its first step.
func TestClosedDrainBatches(t *testing.T) {
	for _, c := range []struct {
		name              string
		wrap              func(sim.ResourceManager) sim.ResourceManager
		arrived, finished int
	}{
		{"fifo", func(rm sim.ResourceManager) sim.ResourceManager { return rm }, 3, 3},
		{"slow", func(rm sim.ResourceManager) sim.ResourceManager { return slowRM{rm} }, 1, 0},
	} {
		e := closedEngine(t, c.wrap)
		<-e.wake // the submissions' signal, which run consumes before a batch
		steps, until := e.drainIntake()
		e.mu.Lock()
		err := e.stepBatch(steps, until)
		m := e.sim.CurrentMetrics()
		e.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if m.JobsArrived != c.arrived || m.JobsCompleted != c.finished {
			t.Errorf("%s: one batch of %d steps saw %d arrivals and %d completions, want %d and %d",
				c.name, steps, m.JobsArrived, m.JobsCompleted, c.arrived, c.finished)
		}
		e.Stop()
	}
}

// parkedDrain starts a closed drain and returns once it is parked in the
// first arrival.
func parkedDrain(t *testing.T) (*Engine, *gatedRM) {
	t.Helper()
	var g *gatedRM
	e := closedEngine(t, func(rm sim.ResourceManager) sim.ResourceManager {
		g = &gatedRM{ResourceManager: rm, entered: make(chan struct{}), release: make(chan struct{})}
		return g
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the manager never saw the first arrival")
	}
	return e, g
}

// TestStopCutsClosedDrain: a Stop while a closed drain is inside a step
// ends the run at that step's boundary, not after the rest of its batch,
// which here would have been the whole run.
func TestStopCutsClosedDrain(t *testing.T) {
	e, g := parkedDrain(t)
	e.Stop()
	close(g.release)
	if err := e.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Wait returned %v, want ErrStopped", err)
	}
	if snap := e.Metrics(); snap.JobsCompleted >= snap.Submitted {
		t.Fatalf("%d of %d jobs completed after a Stop in the first step", snap.JobsCompleted, snap.Submitted)
	}
}

// TestApplyFaultsWaitsForStepBoundary: a fault switch waits for the step in
// flight, so the instant it journals is the simulator's clock at a step
// boundary rather than a view published before the step. Once released,
// the short run may end before the switch gets the lock: ErrFinished is a
// return after the release too.
func TestApplyFaultsWaitsForStepBoundary(t *testing.T) {
	e, g := parkedDrain(t)
	applied := make(chan error, 1)
	go func() { applied <- e.ApplyFaults(FaultSpec{FailRate: 0.5, Seed: 3}) }()
	select {
	case err := <-applied:
		t.Fatalf("ApplyFaults returned %v while a step held the simulator", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	select {
	case err := <-applied:
		if err != nil && !errors.Is(err, ErrFinished) {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ApplyFaults never returned")
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
}
