package sim

import (
	"testing"

	"mrcprm/internal/workload"
)

// Regression test: Unschedule must clear the placement fields, not just the
// scheduled flag. A stale res/start pair would later leak into outage
// evacuation lists and fault hooks as a phantom placement.
func TestUnscheduleClearsStalePlacement(t *testing.T) {
	j := makeJob(0, 0, 0, 100_000, []int64{2000}, nil)
	cluster := Cluster{NumResources: 3, MapSlots: 1, ReduceSlots: 1}
	s, err := New(cluster, noopRM{}, []*workload.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	task := j.MapTasks[0]
	if err := s.Schedule(task, 2, 5000); err != nil {
		t.Fatal(err)
	}
	st := s.tasks[task]
	if st.res != 2 || st.start != 5000 || !st.scheduled {
		t.Fatalf("placement not recorded: res=%d start=%d scheduled=%v", st.res, st.start, st.scheduled)
	}
	v := st.version
	if err := s.Unschedule(task); err != nil {
		t.Fatal(err)
	}
	if st.scheduled {
		t.Fatal("still scheduled after Unschedule")
	}
	if st.res != -1 || st.start != 0 {
		t.Fatalf("stale placement survives Unschedule: res=%d start=%d", st.res, st.start)
	}
	if st.version == v {
		t.Fatal("version not bumped; queued start event would not be invalidated")
	}
	if s.Status(task).Placed {
		t.Fatal("Status still reports the removed placement")
	}
}
