package sim

import (
	"fmt"
	"math"

	"mrcprm/internal/workload"
)

// Cluster describes the simulated system component (Section III.A): m
// resources, each with a map task capacity c^mp and a reduce task capacity
// c^rd. Two optional extensions generalize the paper's uniform cluster:
//
//   - Speed gives each resource a relative speed factor. A task with
//     nominal execution time e runs for ScaledExec(e, Speed[r]) on
//     resource r. Nil (the zero value) means every resource has speed 1.0,
//     which is bit-identical to the historical uniform behaviour.
//   - MemCapacity adds a second, machine-wide resource dimension: the sum
//     of Mem demands of all tasks running on a resource (map and reduce
//     alike — memory is a node resource, not a slot-type resource) must
//     stay within MemCapacity. Zero disables the dimension.
type Cluster struct {
	NumResources int
	MapSlots     int64 // c^mp per resource
	ReduceSlots  int64 // c^rd per resource

	// Speed holds one relative speed factor per resource (nil = all 1.0).
	// Factors must be > 0; 0.5 means a task takes twice its nominal time.
	Speed []float64
	// MemCapacity is the per-resource memory capacity shared by map and
	// reduce tasks; 0 turns the memory dimension off entirely.
	MemCapacity int64
}

// TotalMapSlots returns m * c^mp.
func (c Cluster) TotalMapSlots() int64 { return int64(c.NumResources) * c.MapSlots }

// TotalReduceSlots returns m * c^rd.
func (c Cluster) TotalReduceSlots() int64 { return int64(c.NumResources) * c.ReduceSlots }

// SpeedOf returns the speed factor of resource r (1.0 when Speed is nil or
// r is out of range).
func (c Cluster) SpeedOf(r int) float64 {
	if r < 0 || r >= len(c.Speed) {
		return 1.0
	}
	return c.Speed[r]
}

// Heterogeneous reports whether any resource deviates from speed 1.0.
func (c Cluster) Heterogeneous() bool {
	for _, s := range c.Speed {
		if s != 1.0 {
			return true
		}
	}
	return false
}

// MaxSpeed returns the fastest resource's speed factor (1.0 when uniform).
func (c Cluster) MaxSpeed() float64 {
	best := 1.0
	if len(c.Speed) > 0 {
		best = c.Speed[0]
		for _, s := range c.Speed[1:] {
			if s > best {
				best = s
			}
		}
	}
	return best
}

// MinSpeed returns the slowest resource's speed factor (1.0 when uniform).
func (c Cluster) MinSpeed() float64 {
	worst := 1.0
	if len(c.Speed) > 0 {
		worst = c.Speed[0]
		for _, s := range c.Speed[1:] {
			if s < worst {
				worst = s
			}
		}
	}
	return worst
}

// ScaledExec returns the wall-clock execution time of a task with nominal
// execution time exec on a resource with the given speed factor. Speed
// exactly 1.0 returns exec unchanged (no float round-trip), preserving
// bit-identical behaviour on uniform clusters; other speeds round up and
// never go below 1ms.
func ScaledExec(exec int64, speed float64) int64 {
	if speed == 1.0 || exec <= 0 {
		return exec
	}
	scaled := int64(math.Ceil(float64(exec) / speed))
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}

// Equal reports whether two clusters describe the same system, treating a
// nil Speed slice and an all-1.0 one as equivalent.
func (c Cluster) Equal(o Cluster) bool {
	if c.NumResources != o.NumResources || c.MapSlots != o.MapSlots ||
		c.ReduceSlots != o.ReduceSlots || c.MemCapacity != o.MemCapacity {
		return false
	}
	for r := 0; r < c.NumResources; r++ {
		if c.SpeedOf(r) != o.SpeedOf(r) {
			return false
		}
	}
	return true
}

// CheckDemand rejects a task that no resource of the cluster could hold:
// its slot demand exceeds the per-resource capacity of its type, or its
// memory demand the per-resource memory capacity.
func (c Cluster) CheckDemand(t *workload.Task) error {
	if t.Type == workload.MapTask && t.Req > c.MapSlots {
		return fmt.Errorf("sim: task %s demand %d exceeds per-resource map capacity %d",
			t.ID, t.Req, c.MapSlots)
	}
	if t.Type == workload.ReduceTask && t.Req > c.ReduceSlots {
		return fmt.Errorf("sim: task %s demand %d exceeds per-resource reduce capacity %d",
			t.ID, t.Req, c.ReduceSlots)
	}
	if c.MemCapacity > 0 && t.Mem > c.MemCapacity {
		return fmt.Errorf("sim: task %s memory demand %d exceeds per-resource capacity %d",
			t.ID, t.Mem, c.MemCapacity)
	}
	return nil
}

// Validate checks the cluster shape.
func (c Cluster) Validate() error {
	if c.NumResources < 1 || c.MapSlots < 0 || c.ReduceSlots < 0 ||
		c.MapSlots+c.ReduceSlots == 0 {
		return fmt.Errorf("sim: bad cluster shape m=%d c_mp=%d c_rd=%d",
			c.NumResources, c.MapSlots, c.ReduceSlots)
	}
	if len(c.Speed) != 0 && len(c.Speed) != c.NumResources {
		return fmt.Errorf("sim: cluster has %d speed factors for %d resources",
			len(c.Speed), c.NumResources)
	}
	for r, s := range c.Speed {
		if !(s > 0) || math.IsInf(s, 0) {
			return fmt.Errorf("sim: resource %d has invalid speed factor %v", r, s)
		}
	}
	if c.MemCapacity < 0 {
		return fmt.Errorf("sim: negative memory capacity %d", c.MemCapacity)
	}
	return nil
}

// slotLedger tracks per-resource slot (and, when enabled, memory)
// occupancy and enforces capacities. Beside what is running it holds what
// is promised — the demand of tasks placed on a resource but not yet
// started — so firstFit can say where a task could start now.
type slotLedger struct {
	cluster Cluster
	// mapUse, redUse and memUse are the demand of the attempts running on
	// each resource; memUse is nil unless the cluster has a memory dimension.
	mapUse, redUse, memUse []int64
	// mapHeld, redHeld and memHeld are the running demand plus the promised
	// demand on each resource (memHeld nil as memUse): the capacity a new
	// placement cannot have.
	mapHeld, redHeld, memHeld []int64
	// mapBusy and redBusy are the cluster-wide sums of mapUse and redUse, and
	// waitMap and waitRed count the placed, not yet started tasks by type,
	// kept here so a telemetry sample reads them without a pass.
	mapBusy, redBusy int64
	waitMap, waitRed int
}

func newSlotLedger(c Cluster) *slotLedger {
	n := c.NumResources
	l := &slotLedger{
		cluster: c,
		mapUse:  make([]int64, n),
		redUse:  make([]int64, n),
		mapHeld: make([]int64, n),
		redHeld: make([]int64, n),
	}
	if c.MemCapacity > 0 {
		l.memUse, l.memHeld = make([]int64, n), make([]int64, n)
	}
	return l
}

// acquire starts an attempt of t on res. The attempt's demand is held from
// now on; a start moves a promise here, so the caller takes the promise
// back first.
func (l *slotLedger) acquire(res int, t *workload.Task) error {
	if res < 0 || res >= l.cluster.NumResources {
		return fmt.Errorf("sim: task %s assigned to invalid resource %d", t.ID, res)
	}
	if l.memUse != nil && t.Mem > 0 && l.memUse[res]+t.Mem > l.cluster.MemCapacity {
		return fmt.Errorf("sim: memory capacity of resource %d exceeded by task %s", res, t.ID)
	}
	if t.Type == workload.MapTask {
		if l.mapUse[res]+t.Req > l.cluster.MapSlots {
			return fmt.Errorf("sim: map capacity of resource %d exceeded by task %s", res, t.ID)
		}
		l.mapUse[res] += t.Req
		l.mapHeld[res] += t.Req
		l.mapBusy += t.Req
	} else {
		if l.redUse[res]+t.Req > l.cluster.ReduceSlots {
			return fmt.Errorf("sim: reduce capacity of resource %d exceeded by task %s", res, t.ID)
		}
		l.redUse[res] += t.Req
		l.redHeld[res] += t.Req
		l.redBusy += t.Req
	}
	if l.memUse != nil {
		l.memUse[res] += t.Mem
		l.memHeld[res] += t.Mem
	}
	return nil
}

// release ends an attempt of t on res (finished, failed or killed).
func (l *slotLedger) release(res int, t *workload.Task) {
	if t.Type == workload.MapTask {
		l.mapUse[res] -= t.Req
		l.mapHeld[res] -= t.Req
		l.mapBusy -= t.Req
		if l.mapUse[res] < 0 {
			panic("sim: map slot ledger went negative")
		}
	} else {
		l.redUse[res] -= t.Req
		l.redHeld[res] -= t.Req
		l.redBusy -= t.Req
		if l.redUse[res] < 0 {
			panic("sim: reduce slot ledger went negative")
		}
	}
	if l.memUse != nil {
		l.memUse[res] -= t.Mem
		l.memHeld[res] -= t.Mem
		if l.memUse[res] < 0 {
			panic("sim: memory ledger went negative")
		}
	}
}

// promise books t's demand on res for a placement that has not started;
// sign -1 takes it back (start, replan elsewhere, unplace).
func (l *slotLedger) promise(res int, t *workload.Task, sign int64) {
	if t.Type == workload.MapTask {
		l.mapHeld[res] += sign * t.Req
		l.waitMap += int(sign)
	} else {
		l.redHeld[res] += sign * t.Req
		l.waitRed += int(sign)
	}
	if l.memHeld != nil {
		l.memHeld[res] += sign * t.Mem
	}
}

// firstFit returns the lowest-index up resource on which t can start now —
// its slot demand (Req) and memory demand (Mem) fit beside the running
// attempts and the promised placements — or -1 when there is none. A
// resource without room for the slot demand costs one comparison.
func (l *slotLedger) firstFit(t *workload.Task, down []bool) int {
	held, room := l.mapHeld, l.cluster.MapSlots-t.Req
	if t.Type == workload.ReduceTask {
		held, room = l.redHeld, l.cluster.ReduceSlots-t.Req
	}
	for r, h := range held {
		if h <= room && !down[r] && (l.memHeld == nil || l.memHeld[r]+t.Mem <= l.cluster.MemCapacity) {
			return r
		}
	}
	return -1
}
