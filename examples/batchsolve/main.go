// Batch solve: the closed-system scenario of the authors' preliminary
// work — a fixed set of MapReduce jobs with SLAs, known ahead of time, is
// mapped and scheduled in a single CP solve that minimizes the number of
// late jobs. The example also shows the solver proving that one late job
// is unavoidable when the deadlines are tightened.
package main

import (
	"fmt"
	"log"

	"mrcprm"
)

// job builds a job from the submission spec the service takes (times in
// milliseconds there, seconds here).
func job(id int, earliest, deadline int64, mapSecs, redSecs []int64) *mrcprm.Job {
	spec := mrcprm.JobSpec{ArrivalMS: earliest * 1000, EarliestStartMS: earliest * 1000, DeadlineMS: deadline * 1000}
	for _, s := range mapSecs {
		spec.MapExecMS = append(spec.MapExecMS, s*1000)
	}
	for _, s := range redSecs {
		spec.ReduceExecMS = append(spec.ReduceExecMS, s*1000)
	}
	j, err := spec.Job(id)
	if err != nil {
		log.Fatal(err)
	}
	return j
}

func solveAndPrint(cluster mrcprm.Cluster, jobs []*mrcprm.Job, what string) {
	sched, err := mrcprm.SolveBatch(cluster, jobs, mrcprm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	status := ""
	if sched.Optimal {
		status = " (proved optimal)"
	}
	fmt.Printf("%s: %d late job(s)%s, solved in %v over %d nodes\n",
		what, len(sched.LateJobs), status, sched.SolveTime.Round(1e5), sched.Nodes)
	for _, a := range sched.Assignments {
		fmt.Printf("  %-8s %-6s on r%d  [%6.1fs, %6.1fs)\n",
			a.Task.ID, a.Task.Type, a.Resource,
			float64(a.Start)/1000, float64(a.End())/1000)
	}
	if len(sched.LateJobs) > 0 {
		fmt.Printf("  late: jobs %v\n", sched.LateJobs)
	}
	fmt.Println()
}

func main() {
	cluster := mrcprm.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}

	// Three jobs with comfortable deadlines: everything fits on time.
	jobs := []*mrcprm.Job{
		job(0, 0, 120, []int64{20, 25}, []int64{15}),
		job(1, 10, 100, []int64{30}, []int64{10}),
		job(2, 0, 60, []int64{15, 15}, nil),
	}
	solveAndPrint(cluster, jobs, "comfortable deadlines")

	// Tighten job 0 and job 1 so that they contend for the same window:
	// the CP objective picks the schedule that sacrifices only one job.
	tight := []*mrcprm.Job{
		job(0, 0, 50, []int64{20, 25}, []int64{15}),
		job(1, 0, 45, []int64{30}, []int64{10}),
		job(2, 0, 60, []int64{15, 15}, nil),
	}
	solveAndPrint(cluster, tight, "tight deadlines")
}
