package sim

import (
	"testing"

	"mrcprm/internal/obs"
	"mrcprm/internal/workload"
)

// telRM is a manager that takes a telemetry handle, as MRCP-RM does.
type telRM struct {
	noopRM
	tel *obs.Telemetry
}

func (m *telRM) SetTelemetry(tel *obs.Telemetry) { m.tel = tel }

// TestSetTelemetryAttachesManager: the simulator hands its telemetry handle
// to a manager that has SetTelemetry(*obs.Telemetry), a nil handle detaches
// both, and a manager without the method is left alone.
func TestSetTelemetryAttachesManager(t *testing.T) {
	tel := obs.New(obs.DiscardSink{})
	jobs := func() []*workload.Job { return []*workload.Job{makeJob(0, 0, 0, 1e9, []int64{1000}, nil)} }

	t.Run("attach", func(t *testing.T) {
		rm := &telRM{}
		s, err := New(oneSlotCluster(), rm, jobs())
		if err != nil {
			t.Fatal(err)
		}
		s.SetTelemetry(tel, 0)
		if s.tel != tel || rm.tel != tel {
			t.Fatalf("simulator %p, manager %p; want both %p", s.tel, rm.tel, tel)
		}
	})
	t.Run("nil detaches", func(t *testing.T) {
		rm := &telRM{}
		s, err := New(oneSlotCluster(), rm, jobs())
		if err != nil {
			t.Fatal(err)
		}
		s.SetTelemetry(tel, 0)
		s.SetTelemetry(nil, 0)
		if s.tel != nil || rm.tel != nil {
			t.Fatalf("after a nil handle: simulator %p, manager %p; want both nil", s.tel, rm.tel)
		}
	})
	t.Run("manager without the method", func(t *testing.T) {
		s, err := New(oneSlotCluster(), noopRM{}, jobs())
		if err != nil {
			t.Fatal(err)
		}
		s.SetTelemetry(tel, 0)
		if s.tel != tel {
			t.Fatalf("simulator %p, want %p", s.tel, tel)
		}
	})
}
