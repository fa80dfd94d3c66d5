package rmkit

import (
	"strings"
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

func mkJob(id int, arrival, deadline int64, nMaps, nReds int) *workload.Job {
	j := &workload.Job{ID: id, Arrival: arrival, EarliestStart: arrival, Deadline: deadline}
	for i := 0; i < nMaps; i++ {
		j.MapTasks = append(j.MapTasks, &workload.Task{
			ID: "m", JobID: id, Type: workload.MapTask, Exec: 1000, Req: 1})
	}
	for i := 0; i < nReds; i++ {
		j.ReduceTasks = append(j.ReduceTasks, &workload.Task{
			ID: "r", JobID: id, Type: workload.ReduceTask, Exec: 1000, Req: 1})
	}
	return j
}

func TestRetryPolicyExhausted(t *testing.T) {
	cases := []struct {
		p             RetryPolicy
		attempts, job int
		want          bool
	}{
		{RetryPolicy{}, 100, 100, false}, // both zero: unlimited
		{RetryPolicy{MaxTaskRetries: 4}, 4, 0, false},
		{RetryPolicy{MaxTaskRetries: 4}, 5, 0, true},
		{RetryPolicy{JobRetryBudget: 3}, 1, 3, false},
		{RetryPolicy{JobRetryBudget: 3}, 1, 4, true},
		{RetryPolicy{MaxTaskRetries: 4, JobRetryBudget: 3}, 2, 4, true},
	}
	for i, tc := range cases {
		if got := tc.p.Exhausted(tc.attempts, tc.job); got != tc.want {
			t.Errorf("case %d: Exhausted(%d, %d) with %+v = %v, want %v",
				i, tc.attempts, tc.job, tc.p, got, tc.want)
		}
	}
}

func TestTrackerAdmitOrderAndIndices(t *testing.T) {
	// Deadline-ordered tracker: equal keys keep insertion order, and every
	// index resolves.
	tr := NewTracker(func(a, b *JobState) bool { return a.Job.Deadline < b.Job.Deadline })
	j1 := mkJob(1, 0, 5000, 2, 1)
	j2 := mkJob(2, 10, 3000, 1, 0)
	j3 := mkJob(3, 20, 5000, 1, 1)
	s, err := sim.New(sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}, nil, []*workload.Job{j1, j2, j3})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*workload.Job{j1, j2, j3} {
		tr.Admit(j, s.Job(j))
	}
	var ids []int
	for _, js := range tr.Active() {
		ids = append(ids, js.Job.ID)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 1 || ids[2] != 3 {
		t.Fatalf("active order %v, want [2 1 3] (EDF, ties in insertion order)", ids)
	}

	js, ok := tr.ByID(1)
	if !ok || js.Job != j1 {
		t.Fatal("ByID(1) did not resolve")
	}
	if js.Sim != s.Job(j1) || js.Sim.Left() != 3 || js.Sim.MapsLeft() != 2 || len(js.PendingMaps)+len(js.PendingReds) != 0 {
		t.Fatalf("admitted state %+v", js)
	}
	if byTask, ok := tr.ByTask(j1.MapTasks[0]); !ok || byTask != js {
		t.Fatal("ByTask did not resolve to the owning job's state")
	}

	// Dequeue removes only the queue entry; Retire removes the indices too.
	tr.Dequeue(js)
	if tr.Len() != 2 {
		t.Fatalf("len after Dequeue = %d, want 2", tr.Len())
	}
	if _, ok := tr.ByID(1); !ok {
		t.Fatal("Dequeue must keep lookup indices")
	}
	for _, task := range j1.Tasks() {
		if byTask, ok := tr.ByTask(task); !ok || byTask != js {
			t.Fatalf("ByTask(%s) did not resolve after Dequeue", task.ID)
		}
	}
	tr.Retire(js)
	if _, ok := tr.ByID(1); ok {
		t.Fatal("Retire must drop lookup indices")
	}
	for _, task := range j1.Tasks() {
		if _, ok := tr.ByTask(task); ok {
			t.Fatalf("ByTask(%s) resolved after Retire", task.ID)
		}
	}
	if byTask, ok := tr.ByTask(j2.MapTasks[0]); !ok || byTask.Job != j2 {
		t.Fatal("Retire dropped another job's task lookup")
	}
}

func TestTrackerNilComparatorKeepsAdmissionOrder(t *testing.T) {
	tr := NewTracker(nil)
	for _, id := range []int{3, 1, 2} {
		tr.Admit(mkJob(id, 0, int64(id), 1, 0), sim.JobRef{})
	}
	var ids []int
	for _, js := range tr.Active() {
		ids = append(ids, js.Job.ID)
	}
	if ids[0] != 3 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("active order %v, want admission order [3 1 2]", ids)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	name := "test-policy-roundtrip"
	called := false
	Register(name, func(cluster sim.Cluster, opts Options) (sim.ResourceManager, error) {
		called = true
		return nil, nil
	})
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v does not include %q", Names(), name)
	}
	if _, err := New(name, sim.Cluster{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("factory was not invoked")
	}
}

func TestRegistryUnknownNameListsPolicies(t *testing.T) {
	_, err := New("no-such-policy", sim.Cluster{}, Options{})
	if err == nil {
		t.Fatal("expected an error for an unknown policy")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list registered policy %q", err, n)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	name := "test-policy-duplicate"
	f := func(sim.Cluster, Options) (sim.ResourceManager, error) { return nil, nil }
	Register(name, f)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(name, f)
}

func TestRegisterRejectsEmptyNameAndNilFactory(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Factory
	}{
		{"", func(sim.Cluster, Options) (sim.ResourceManager, error) { return nil, nil }},
		{"test-policy-nil-factory", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q, %v) did not panic", tc.name, tc.f)
				}
			}()
			Register(tc.name, tc.f)
		}()
	}
}
