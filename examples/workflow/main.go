// Workflow example: the paper's future-work generalization — scheduling
// workflows with user-specified precedence relationships (arbitrary DAGs)
// under end-to-end SLAs.
//
// The scenario is a nightly ETL pipeline: an extract stage fans out into
// four parallel transforms, a join waits for all of them, and two loads
// publish the result. A second, tighter ad-hoc report workflow competes
// for the same cluster; the CP objective decides who yields.
package main

import (
	"fmt"
	"log"

	"mrcprm"
)

func main() {
	cluster := mrcprm.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 1}

	// Workflow 0: the ETL pipeline (times in ms).
	etl := mrcprm.NewWorkflow(0, 0, 300_000)
	extract := etl.AddTask("extract", mrcprm.MapTask, 30_000)
	var transforms []*mrcprm.Task
	for i := 0; i < 4; i++ {
		tr := etl.AddTask(fmt.Sprintf("transform%d", i+1), mrcprm.MapTask, 60_000)
		if err := etl.AddDep(extract, tr); err != nil {
			log.Fatal(err)
		}
		transforms = append(transforms, tr)
	}
	join := etl.AddTask("join", mrcprm.ReduceTask, 40_000)
	for _, tr := range transforms {
		if err := etl.AddDep(tr, join); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		load := etl.AddTask(fmt.Sprintf("load%d", i+1), mrcprm.ReduceTask, 20_000)
		if err := etl.AddDep(join, load); err != nil {
			log.Fatal(err)
		}
	}

	// Workflow 1: a small ad-hoc report with a tight deadline, arriving as
	// an advance reservation 20s out.
	report := mrcprm.NewWorkflow(1, 20_000, 150_000)
	fetch := report.AddTask("fetch", mrcprm.MapTask, 25_000)
	crunch := report.AddTask("crunch", mrcprm.MapTask, 45_000)
	render := report.AddTask("render", mrcprm.ReduceTask, 15_000)
	if err := report.Chain(fetch, crunch, render); err != nil {
		log.Fatal(err)
	}

	workflows := []*mrcprm.Job{etl, report}
	for _, w := range workflows {
		fmt.Printf("workflow %d: %d tasks, critical path %.0fs, deadline %.0fs\n",
			w.ID, w.NumTasks(), float64(w.CriticalPath())/1000, float64(w.Deadline)/1000)
	}

	// A workflow is a job: the batch solver takes it as it is.
	sched, err := mrcprm.SolveBatch(cluster, workflows, mrcprm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nschedule (%d late, solved in %v over %d nodes):\n",
		len(sched.LateJobs), sched.SolveTime.Round(1e5), sched.Nodes)
	fmt.Printf("%-4s %-12s %-6s %-4s %10s %10s\n", "wf", "task", "pool", "res", "start(s)", "end(s)")
	for _, a := range sched.Assignments {
		fmt.Printf("%-4d %-12s %-6s r%-3d %10.1f %10.1f\n",
			a.Job.ID, a.Task.ID, a.Task.Type, a.Resource,
			float64(a.Start)/1000, float64(a.End())/1000)
	}
	if len(sched.LateJobs) > 0 {
		fmt.Printf("late workflows: %v\n", sched.LateJobs)
	} else {
		fmt.Println("both workflows meet their end-to-end deadlines.")
	}

	// The same jobs run through the open system: they arrive as a stream
	// and MRCP-RM re-plans on every arrival exactly as it does for
	// MapReduce jobs.
	report.Arrival = 10_000 // arrives 10s in, reserved for 20s
	manager := mrcprm.NewManager(cluster, mrcprm.DefaultConfig())
	metrics, err := mrcprm.Simulate(cluster, manager, workflows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nopen-system run: %d workflows completed, %d late, T=%.1fs, %d solver rounds\n",
		metrics.JobsCompleted, metrics.N(), metrics.T(), manager.Stats().Rounds)
}
