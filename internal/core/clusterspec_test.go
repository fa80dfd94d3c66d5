package core

import (
	"reflect"
	"testing"

	"mrcprm/internal/sim"
)

func TestClusterSpecUniformNormalizes(t *testing.T) {
	spec := ClusterSpec{
		Resources: []ResourceSpec{
			{SpeedFactor: 1.0}, {SpeedFactor: 1.0}, {SpeedFactor: 1.0},
		},
		MapSlots: 2, ReduceSlots: 1, MemCapacity: 8,
	}
	c, err := spec.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if c.Speed != nil {
		t.Fatalf("all-1.0 spec produced explicit speeds %v, want nil", c.Speed)
	}
	if c.NumResources != 3 || c.MapSlots != 2 || c.ReduceSlots != 1 || c.MemCapacity != 8 {
		t.Fatalf("cluster shape %+v does not match spec", c)
	}
}

func TestClusterSpecHetero(t *testing.T) {
	spec := ClusterSpec{
		Resources: []ResourceSpec{{SpeedFactor: 1.0}, {SpeedFactor: 0.5}},
		MapSlots:  2, ReduceSlots: 1,
	}
	c, err := spec.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Speed, []float64{1.0, 0.5}) {
		t.Fatalf("speeds %v, want [1 0.5]", c.Speed)
	}
	if !c.Heterogeneous() {
		t.Fatal("two-speed cluster must report heterogeneous")
	}
}

func TestClusterSpecRejectsInvalid(t *testing.T) {
	if _, err := (ClusterSpec{MapSlots: 1, ReduceSlots: 1}).Cluster(); err == nil {
		t.Fatal("empty resource list must be rejected")
	}
	bad := ClusterSpec{
		Resources: []ResourceSpec{{SpeedFactor: 1}, {SpeedFactor: 0}},
		MapSlots:  1, ReduceSlots: 1,
	}
	if _, err := bad.Cluster(); err == nil {
		t.Fatal("zero speed factor must be rejected")
	}
	bad.Resources[1].SpeedFactor = -2
	if _, err := bad.Cluster(); err == nil {
		t.Fatal("negative speed factor must be rejected")
	}
}

func TestTwoClassSpec(t *testing.T) {
	spec := TwoClassSpec(4, 2, 1, 2)
	want := []float64{1, 1, 0.5, 0.5}
	for i, r := range spec.Resources {
		if r.SpeedFactor != want[i] {
			t.Fatalf("resource %d speed %g, want %g", i, r.SpeedFactor, want[i])
		}
	}
	if spec.MapSlots != 2 || spec.ReduceSlots != 1 {
		t.Fatalf("slot shape %+v not preserved", spec)
	}
	// spread 1 is the uniform cluster, normalized to the nil representation.
	c, err := TwoClassSpec(4, 2, 1, 1).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if c.Speed != nil {
		t.Fatalf("spread-1 spec produced speeds %v, want nil", c.Speed)
	}
	if !c.Equal(sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 1}) {
		t.Fatal("spread-1 spec must build the plain uniform cluster")
	}
}
