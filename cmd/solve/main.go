// Command solve maps and schedules a fixed batch of MapReduce jobs with
// SLAs in one shot — the closed-system scenario of the authors'
// preliminary work — and prints the schedule as a table and an ASCII Gantt
// chart.
//
// The problem is read as JSON from a file or stdin:
//
//	{
//	  "cluster": {"resources": 2, "mapSlots": 1, "reduceSlots": 1},
//	  "jobs": [
//	    {"id": 0, "earliestStart": 0, "deadline": 60,
//	     "mapTasks": [10, 12], "reduceTasks": [8]},
//	    {"id": 1, "earliestStart": 5, "deadline": 45,
//	     "mapTasks": [20], "reduceTasks": []}
//	  ]
//	}
//
// Times are seconds. Usage:
//
//	solve problem.json
//	solve -demo          # solve a built-in example problem
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mrcprm"
	"mrcprm/internal/cli"
)

type problemJSON struct {
	Cluster struct {
		Resources   int   `json:"resources"`
		MapSlots    int64 `json:"mapSlots"`
		ReduceSlots int64 `json:"reduceSlots"`
	} `json:"cluster"`
	Jobs []struct {
		ID            int       `json:"id"`
		EarliestStart float64   `json:"earliestStart"`
		Deadline      float64   `json:"deadline"`
		MapTasks      []float64 `json:"mapTasks"`
		ReduceTasks   []float64 `json:"reduceTasks"`
	} `json:"jobs"`
}

const demoProblem = `{
  "cluster": {"resources": 2, "mapSlots": 1, "reduceSlots": 1},
  "jobs": [
    {"id": 0, "earliestStart": 0, "deadline": 60, "mapTasks": [10, 12], "reduceTasks": [8]},
    {"id": 1, "earliestStart": 5, "deadline": 45, "mapTasks": [20], "reduceTasks": [6]},
    {"id": 2, "earliestStart": 0, "deadline": 30, "mapTasks": [8, 8], "reduceTasks": []}
  ]
}`

func main() {
	common := cli.New()
	demo := flag.Bool("demo", false, "solve a built-in example problem")
	direct := flag.Bool("direct", false, "use the direct (per-resource) CP formulation")
	opl := flag.Bool("opl", false, "print the CP model in OPL-like syntax before solving")
	common.Parse()

	var data []byte
	var err error
	switch {
	case *demo:
		data = []byte(demoProblem)
	case flag.NArg() == 1:
		data, err = os.ReadFile(flag.Arg(0))
	default:
		data, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}

	var prob problemJSON
	if err := json.Unmarshal(data, &prob); err != nil {
		fatal(fmt.Errorf("parsing problem: %w", err))
	}

	cluster := mrcprm.Cluster{
		NumResources: prob.Cluster.Resources,
		MapSlots:     prob.Cluster.MapSlots,
		ReduceSlots:  prob.Cluster.ReduceSlots,
	}
	var jobs []*mrcprm.Job
	for _, pj := range prob.Jobs {
		j := &mrcprm.Job{
			ID:            pj.ID,
			Arrival:       sec2ms(pj.EarliestStart),
			EarliestStart: sec2ms(pj.EarliestStart),
			Deadline:      sec2ms(pj.Deadline),
		}
		for i, e := range pj.MapTasks {
			j.MapTasks = append(j.MapTasks, &mrcprm.Task{
				ID: fmt.Sprintf("t%d_m%d", pj.ID, i+1), JobID: pj.ID,
				Type: mrcprm.MapTask, Exec: sec2ms(e), Req: 1})
		}
		for i, e := range pj.ReduceTasks {
			j.ReduceTasks = append(j.ReduceTasks, &mrcprm.Task{
				ID: fmt.Sprintf("t%d_r%d", pj.ID, i+1), JobID: pj.ID,
				Type: mrcprm.ReduceTask, Exec: sec2ms(e), Req: 1})
		}
		jobs = append(jobs, j)
	}

	cfg := mrcprm.DefaultConfig()
	if *direct {
		cfg.Mode = mrcprm.ModeDirect
	}
	if *opl {
		if err := mrcprm.WriteBatchModelOPL(cluster, jobs, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	sched, err := mrcprm.SolveBatch(cluster, jobs, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("solved in %v (%d nodes), %d late job(s)", sched.SolveTime.Round(1e5), sched.Nodes, len(sched.LateJobs))
	if sched.Optimal {
		fmt.Print(" [optimal]")
	}
	fmt.Println()
	fmt.Printf("search: %s\n", sched.Search.String())
	if len(sched.LateJobs) > 0 {
		fmt.Printf("late jobs: %v\n", sched.LateJobs)
	}
	fmt.Printf("\n%-8s %-6s %-4s %10s %10s\n", "task", "type", "res", "start(s)", "end(s)")
	for _, a := range sched.Assignments {
		fmt.Printf("%-8s %-6s r%-3d %10.1f %10.1f\n",
			a.Task.ID, a.Task.Type, a.Resource, ms2sec(a.Start), ms2sec(a.End()))
	}
	fmt.Println()
	fmt.Print(gantt(cluster, sched))
}

func sec2ms(s float64) int64  { return int64(s * 1000) }
func ms2sec(ms int64) float64 { return float64(ms) / 1000 }

// gantt renders one row per (resource, slot kind) with '0'..'9' marking
// which job occupies each time column.
func gantt(cluster mrcprm.Cluster, sched *mrcprm.Schedule) string {
	var maxEnd int64
	for _, a := range sched.Assignments {
		if a.End() > maxEnd {
			maxEnd = a.End()
		}
	}
	const width = 72
	if maxEnd == 0 {
		return ""
	}
	scale := float64(width) / float64(maxEnd)
	rows := map[string][]byte{}
	order := []string{}
	rowFor := func(kind string, res int) []byte {
		key := fmt.Sprintf("r%d/%s", res, kind)
		if _, ok := rows[key]; !ok {
			rows[key] = []byte(strings.Repeat(".", width))
			order = append(order, key)
		}
		return rows[key]
	}
	for r := 0; r < cluster.NumResources; r++ {
		if cluster.MapSlots > 0 {
			rowFor("map", r)
		}
		if cluster.ReduceSlots > 0 {
			rowFor("red", r)
		}
	}
	for _, a := range sched.Assignments {
		kind := "map"
		if a.Task.Type == mrcprm.ReduceTask {
			kind = "red"
		}
		row := rowFor(kind, a.Resource)
		from := int(float64(a.Start) * scale)
		to := int(float64(a.End()) * scale)
		if to <= from {
			to = from + 1
		}
		mark := byte('0' + a.Task.JobID%10)
		for x := from; x < to && x < width; x++ {
			row[x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gantt (0..%.0fs, one char ≈ %.1fs; digit = job id mod 10)\n",
		ms2sec(maxEnd), float64(maxEnd)/1000/width)
	for _, key := range order {
		fmt.Fprintf(&b, "%-10s %s\n", key, rows[key])
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
