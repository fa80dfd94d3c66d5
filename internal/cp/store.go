// Package cp implements the constraint programming substrate that replaces
// IBM ILOG CPLEX CP Optimizer in this reproduction. It provides exactly the
// modelling primitives the paper's Table 1 formulation needs:
//
//   - interval variables with fixed durations and pruned start-time bounds
//     (the a_t decision variables),
//   - resource-assignment variables with finite set domains (the x_tr
//     matchmaking variables, in the "alternative" style of OPL),
//   - cumulative resource constraints with timetable propagation
//     (constraints 5 and 6),
//   - max-end precedence between a job's map and reduce phases
//     (constraint 3),
//   - reified lateness indicators (constraint 4) and a sum bound over them
//     used for branch-and-bound on the objective min Σ N_j.
//
// The search is a set-times depth-first search with task postponement and
// EDF-flavoured tie-breaking, wrapped in a branch-and-bound loop on the
// number of late jobs, with node and wall-clock limits. This mirrors how a
// commercial CP engine behaves on the paper's models: a good first solution
// is found greedily and then improved within a time budget.
//
// A Model is built, solved once and then rebuilt by Reset for the next
// problem, in the memory the earlier builds grew: the variables, the
// constraints, the store and the search state are reused by index. A
// Result owns its slices and stays valid across a Reset.
package cp

// The Store is the backtrackable state shared by all variables: a flat
// array of int64 cells plus a trail recording old values so that the search
// can undo decisions. Variables are views over ranges of cells.

type trailEntry struct {
	idx int32
	old int64
}

// Store holds all trailed solver state.
type Store struct {
	cells []int64
	// owner[i] is the id of the interval that cell i belongs to — its start
	// bounds, its postponement flag or a word of its resvar — and -1 for any
	// other cell. It lets a backtrack name the intervals it restored.
	owner []int32
	trail []trailEntry
	marks []int // trail length at the start of each level
	pops  int64 // number of Pop calls, for cache invalidation
}

// NewStore returns an empty store at level 0.
func NewStore() *Store {
	return &Store{}
}

// reset empties the store to level 0, keeping its memory.
func (s *Store) reset() {
	s.cells = s.cells[:0]
	s.owner = s.owner[:0]
	s.trail = s.trail[:0]
	s.marks = s.marks[:0]
	s.pops = 0
}

// alloc reserves one cell per given value for the interval with id owner
// (-1 for a variable that is not part of an interval) and returns the index
// of the first.
func (s *Store) alloc(owner int32, vals ...int64) int32 {
	idx := int32(len(s.cells))
	s.cells = append(s.cells, vals...)
	for range vals {
		s.owner = append(s.owner, owner)
	}
	return idx
}

// reserve sizes the level stack and the trail for a search that opens about
// the given number of levels and trails about the given number of writes, so
// the first descent does not grow them step by step.
func (s *Store) reserve(levels, writes int) {
	if cap(s.marks) < levels {
		s.marks = append(make([]int, 0, levels), s.marks...)
	}
	if cap(s.trail) < writes {
		s.trail = append(make([]trailEntry, 0, writes), s.trail...)
	}
}

// get reads a cell.
func (s *Store) get(idx int32) int64 { return s.cells[idx] }

// set writes a cell, trailing the previous value if the store is inside at
// least one level and the value actually changes.
func (s *Store) set(idx int32, v int64) {
	old := s.cells[idx]
	if old == v {
		return
	}
	if len(s.marks) > 0 {
		s.trail = append(s.trail, trailEntry{idx: idx, old: old})
	}
	s.cells[idx] = v
}

// Level returns the current decision level (0 at the root).
func (s *Store) Level() int { return len(s.marks) }

// Push opens a new decision level.
func (s *Store) Push() {
	s.marks = append(s.marks, len(s.trail))
}

// levelTrail returns the writes the next Pop will undo, oldest first. It
// panics at level 0.
func (s *Store) levelTrail() []trailEntry {
	return s.trail[s.marks[len(s.marks)-1]:]
}

// Pop closes the current decision level, undoing all changes made in it.
// It panics at level 0.
func (s *Store) Pop() {
	if len(s.marks) == 0 {
		panic("cp: Pop at root level")
	}
	mark := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	s.pops++
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := s.trail[i]
		s.cells[e.idx] = e.old
	}
	s.trail = s.trail[:mark]
}
