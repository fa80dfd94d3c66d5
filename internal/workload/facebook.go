package workload

import (
	"fmt"

	"mrcprm/internal/stats"
)

// FacebookJobType is one row of Table 4: a (map tasks, reduce tasks) shape
// and the number of jobs with that shape in the 1000-job workload derived
// from the October 2009 Facebook traces.
type FacebookJobType struct {
	Type    int
	NumMap  int
	NumRed  int
	NumJobs int
}

// FacebookTable4 is the job mix of Table 4, verbatim.
var FacebookTable4 = []FacebookJobType{
	{1, 1, 0, 380},
	{2, 2, 0, 160},
	{3, 10, 3, 140},
	{4, 50, 0, 80},
	{5, 100, 0, 60},
	{6, 200, 50, 60},
	{7, 400, 0, 40},
	{8, 800, 180, 40},
	{9, 2400, 360, 20},
	{10, 4800, 0, 20},
}

// Facebook task execution time distributions (Section VI.B.1), in
// milliseconds: LN(mu, sigma^2) on the underlying normal, as identified by
// Verma et al. from the trace CDFs and confirmed by the paper's authors.
var (
	FacebookMapExec    = stats.LogNormal{Mu: 9.9511, Sigma2: 1.6764}
	FacebookReduceExec = stats.LogNormal{Mu: 12.375, Sigma2: 1.6262}
)

// FacebookConfig parameterizes the comparison workload of Section VI.B.1.
type FacebookConfig struct {
	// NumJobs scales the workload; 1000 reproduces the paper exactly (the
	// Table 4 mix is kept proportionally for other sizes).
	NumJobs int
	// Lambda is the Poisson arrival rate in jobs/s. The paper compares
	// rates from 0.0001 to 0.0005.
	Lambda float64
	// DeadlineUL is the deadline multiplier upper bound; the paper uses 2.
	DeadlineUL float64
	// NumResources is the cluster size; the paper uses 64 resources with
	// one map and one reduce slot each.
	NumResources int
}

// DefaultFacebook returns the Section VI.B.1 configuration at the lowest
// compared arrival rate.
func DefaultFacebook() FacebookConfig {
	return FacebookConfig{NumJobs: 1000, Lambda: 0.0001, DeadlineUL: 2, NumResources: 64}
}

// Validate checks the configuration.
func (c FacebookConfig) Validate() error {
	switch {
	case c.NumJobs < 1:
		return fmt.Errorf("workload: facebook job count %d must be positive", c.NumJobs)
	case c.Lambda <= 0:
		return fmt.Errorf("workload: facebook arrival rate %g must be positive", c.Lambda)
	case c.DeadlineUL < 1:
		return fmt.Errorf("workload: facebook deadline multiplier %g must be >= 1", c.DeadlineUL)
	case c.NumResources < 1:
		return fmt.Errorf("workload: facebook cluster size %d must be positive", c.NumResources)
	}
	return nil
}

// typeMix returns the per-type job counts scaled to total n, preserving the
// Table 4 proportions (largest remainders get the leftover jobs).
func typeMix(n int) []int {
	counts := make([]int, len(FacebookTable4))
	rem := make([]float64, len(FacebookTable4))
	total := 0
	for i, jt := range FacebookTable4 {
		exact := float64(jt.NumJobs) * float64(n) / 1000
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		total += counts[i]
	}
	for total < n {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		total++
	}
	return counts
}

// Generate produces the Facebook workload: jobs of the Table 4 shapes in
// random arrival order, log-normal task execution times, earliest start
// equal to arrival (p = 0), and deadlines d_j = s_j + TE * U[1, dUL].
func (c FacebookConfig) Generate(rng *stats.Stream) ([]*Job, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	arrivalRng := rng.Derive(1)
	shapeRng := rng.Derive(2)
	slaRng := rng.Derive(3)

	// Build the type sequence and shuffle it into arrival order.
	var seq []int
	for i, cnt := range typeMix(c.NumJobs) {
		for k := 0; k < cnt; k++ {
			seq = append(seq, i)
		}
	}
	shapeRng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

	arrivals := stats.PoissonProcess{Rate: c.Lambda}.Arrivals(len(seq), arrivalRng)
	jobs := make([]*Job, len(seq))
	slots := int64(c.NumResources) // one map and one reduce slot per resource
	for i, ti := range seq {
		jt := FacebookTable4[ti]
		j := &Job{ID: i}
		j.newTasks(jt.NumMap, jt.NumRed)
		for _, t := range j.MapTasks {
			t.Exec = lnMS(FacebookMapExec, shapeRng)
		}
		for _, t := range j.ReduceTasks {
			t.Exec = lnMS(FacebookReduceExec, shapeRng)
		}
		assignSLA(j, int64(arrivals[i]*1000), 0, 0, c.DeadlineUL, slots, slots, slaRng)
		if err := j.Validate(); err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// lnMS samples a log-normal execution time in milliseconds, clamped to at
// least 1ms so every task has positive duration.
func lnMS(d stats.LogNormal, rng *stats.Stream) int64 {
	v := int64(d.Sample(rng))
	if v < 1 {
		v = 1
	}
	return v
}
