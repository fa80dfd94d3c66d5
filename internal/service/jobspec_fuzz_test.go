package service

import (
	"bytes"
	"reflect"
	"testing"

	"mrcprm/internal/workload"
)

// FuzzJobSpec feeds arbitrary bytes through the submission decoder into a
// workload.JobSpec and materializes an accepted spec as a job. Neither step
// may panic. A job built from an accepted spec has exactly the spec's map and
// reduce tasks under unique IDs, equal to the spec's job built under ID 0
// and bound to the ID (the router's probe, as the engine registers it), and
// the same bytes followed by a second value are refused. The seed corpus (testdata/fuzz) holds a plain and a
// memory-carrying spec and the shapes the decoder or the job refuses.
func FuzzJobSpec(f *testing.F) {
	const id = 7
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec workload.JobSpec
		if decodeStrict(bytes.NewReader(body), &spec) != nil {
			return
		}
		trailing := append(bytes.Clone(body), "{}"...)
		if err := decodeStrict(bytes.NewReader(trailing), &workload.JobSpec{}); err == nil {
			t.Fatalf("%q accepted with a second value after it", trailing)
		}
		j, err := spec.Job(id)
		if err != nil {
			return
		}
		if j.ID != id || len(j.MapTasks) != len(spec.MapExecMS) || len(j.ReduceTasks) != len(spec.ReduceExecMS) {
			t.Fatalf("job %d has %d maps and %d reduces, spec %+v",
				j.ID, len(j.MapTasks), len(j.ReduceTasks), spec)
		}
		seen := make(map[string]bool)
		for _, task := range j.Tasks() {
			if seen[task.ID] {
				t.Fatalf("task ID %s repeats in job %d", task.ID, j.ID)
			}
			seen[task.ID] = true
		}
		probe, err := spec.Job(0)
		if err != nil {
			t.Fatalf("spec builds under ID %d but not under 0: %v", id, err)
		}
		if err := spec.Bind(probe, id); err != nil {
			t.Fatalf("binding the probe to ID %d: %v", id, err)
		}
		if !reflect.DeepEqual(probe, j) {
			t.Fatalf("probe bound to ID %d differs from the job built under it:\n%s\n%s", id, jobString(probe), jobString(j))
		}
	})
}
