package cp

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"mrcprm/internal/stats"
)

// durScan is the duration bounds' original formulation, kept as their
// oracle: a scan of every resource left in the resvar's domain, reading the
// interval's full table. An empty domain yields the table's own min and max.
func durScan(m *Model, iv *Interval, table []int64) (lo, hi int64) {
	rv := iv.resVar
	lo, hi = math.MaxInt64, -1
	for w := 0; w < rv.words; w++ {
		word := uint64(m.store.get(rv.base + int32(w)))
		for word != 0 {
			d := table[w*64+bits.TrailingZeros64(word)]
			lo, hi = min(lo, d), max(hi, d)
			word &= word - 1
		}
	}
	if hi < 0 {
		return slices.Min(table), slices.Max(table)
	}
	return lo, hi
}

// randomTable draws a duration table over numRes resources: constant at the
// nominal duration (the uniform case SetResDurations drops), constant below
// it, every entry distinct, or a few speed classes in random positions. It
// returns the table and the nominal duration to create the interval with.
func randomTable(rng *stats.Stream, numRes int) ([]int64, int64) {
	table := make([]int64, numRes)
	switch kind := rng.IntN(4); kind {
	case 0, 1:
		d := int64(1 + rng.IntN(50))
		for r := range table {
			table[r] = d
		}
		if kind == 1 {
			return table, d + int64(1+rng.IntN(10))
		}
	case 2:
		for r := range table {
			table[r] = int64(1 + r)
		}
		rng.Shuffle(numRes, func(i, j int) { table[i], table[j] = table[j], table[i] })
	default:
		classes := make([]int64, 1+rng.IntN(4))
		for i := range classes {
			classes[i] = int64(1 + rng.IntN(40))
		}
		for r := range table {
			table[r] = classes[rng.IntN(len(classes))]
		}
	}
	return table, slices.Max(table)
}

// Property: DurMin, DurMax, EndMin and EndMax read off the per-mode masks
// equal the oracle's scan of the live domain, on tables over 1 to 130
// resources (resvars of one, two and three words) as removeRes and fixRes
// cut the domains down under push and pop, down to the empty domain.
func TestDurationBoundsMatchScan(t *testing.T) {
	rng := stats.NewStream(2929, 1)
	for trial := 0; trial < 300; trial++ {
		local := rng.Derive(uint64(trial))
		m := NewModel(1_000_000)
		var ivs []*Interval
		var tables [][]int64
		for range 1 + local.IntN(3) {
			numRes := 1 + local.IntN(130)
			if local.IntN(2) == 0 { // straddle a word boundary
				numRes = []int{63, 64, 65, 127, 128, 129, 130}[local.IntN(7)]
			}
			table, dur := randomTable(local, numRes)
			iv := m.NewInterval("t", dur)
			start := int64(local.IntN(1000))
			m.SetStartBounds(iv, start, start+int64(local.IntN(1000)))
			m.NewResVar(iv, numRes)
			m.SetResDurations(iv, table)
			// A uniform table keeps no per-resource durations.
			if len(iv.durs) > 0 && !slices.Equal(iv.durs, table) {
				t.Fatalf("trial %d: durations %v, table %v", trial, iv.durs, table)
			}
			ivs = append(ivs, iv)
			tables = append(tables, table)
		}
		e := newEngine(m)
		check := func(step int) {
			t.Helper()
			for i, iv := range ivs {
				lo, hi := durScan(m, iv, tables[i])
				if got := m.DurMin(iv); got != lo {
					t.Fatalf("trial %d step %d: DurMin %d, scan %d (table %v, domain %v)",
						trial, step, got, lo, tables[i], m.AppendResDomain(iv.resVar, nil))
				}
				if got := m.DurMax(iv); got != hi {
					t.Fatalf("trial %d step %d: DurMax %d, scan %d (table %v, domain %v)",
						trial, step, got, hi, tables[i], m.AppendResDomain(iv.resVar, nil))
				}
				if m.EndMin(iv) != m.StartMin(iv)+lo || m.EndMax(iv) != m.StartMax(iv)+hi {
					t.Fatalf("trial %d step %d: end bounds [%d,%d], scan [%d,%d]",
						trial, step, m.EndMin(iv), m.EndMax(iv), m.StartMin(iv)+lo, m.StartMax(iv)+hi)
				}
			}
		}
		check(-1)
		for step := 0; step < 200; step++ {
			if e.store.Level() > 0 && local.IntN(3) == 0 {
				e.pop()
				check(step)
				continue
			}
			// Every cut opens a level, so a wiped-out domain is popped later.
			e.store.Push()
			iv := ivs[local.IntN(len(ivs))]
			rv := iv.resVar
			switch local.IntN(7) {
			case 0:
				_ = e.fixRes(rv, local.IntN(rv.NumRes))
			case 1: // one of the top resources, so only a high word is live
				_ = e.fixRes(rv, rv.NumRes-1-local.IntN(min(rv.NumRes, 3)))
			case 2: // empty the domain outright
				for r := range rv.NumRes {
					_ = e.removeRes(rv, r)
				}
			default:
				for range 1 + local.IntN(8) {
					_ = e.removeRes(rv, local.IntN(rv.NumRes))
				}
			}
			check(step)
		}
		e.popAll()
		check(200)
	}
}
