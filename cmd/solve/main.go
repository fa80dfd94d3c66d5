// Command solve maps and schedules a fixed batch of MapReduce jobs with
// SLAs in one shot — the closed-system scenario of the authors'
// preliminary work — and prints the schedule as a table and an ASCII Gantt
// chart.
//
// The problem is read as JSON from a file or stdin. It holds a cluster and
// jobs in the encodings the mrcpd journal writes: the cluster as a journal's
// meta record carries it and each job as a submission spec, the body of a
// POST /v1/jobs. Times are milliseconds, and a job's ID is its position in
// the list:
//
//	{
//	  "cluster": {"NumResources": 2, "MapSlots": 1, "ReduceSlots": 1},
//	  "jobs": [
//	    {"earliestStartMs": 0, "deadlineMs": 60000,
//	     "mapExecMs": [10000, 12000], "reduceExecMs": [8000]},
//	    {"earliestStartMs": 5000, "deadlineMs": 45000, "mapExecMs": [20000]}
//	  ]
//	}
//
// The cluster's "Speed" (one factor per machine) and "MemCapacity", with
// the jobs' "mapMem" and "reduceMem", describe heterogeneous and
// memory-constrained clusters. A field the format does not know is refused
// by name, so a file in another format fails instead of solving something
// else. Usage:
//
//	solve problem.json
//	solve -demo          # solve a built-in example problem
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mrcprm"
	"mrcprm/internal/cli"
)

const demoProblem = `{
  "cluster": {"NumResources": 2, "MapSlots": 1, "ReduceSlots": 1},
  "jobs": [
    {"earliestStartMs": 0, "deadlineMs": 60000, "mapExecMs": [10000, 12000], "reduceExecMs": [8000]},
    {"earliestStartMs": 5000, "deadlineMs": 45000, "mapExecMs": [20000], "reduceExecMs": [6000]},
    {"earliestStartMs": 0, "deadlineMs": 30000, "mapExecMs": [8000, 8000]}
  ]
}`

func main() {
	common := cli.New()
	demo := flag.Bool("demo", false, "solve a built-in example problem")
	direct := flag.Bool("direct", false, "use the direct (per-resource) CP formulation")
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
	cluster, jobs, err := readProblem(data)
	if err != nil {
		fatal(err)
	}

	cfg := mrcprm.DefaultConfig()
	if *direct {
		cfg.Mode = mrcprm.ModeDirect
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

// readProblem decodes a problem document strictly — no unknown field, no
// second value — and materializes job i of its list under ID i.
func readProblem(data []byte) (mrcprm.Cluster, []*mrcprm.Job, error) {
	var prob struct {
		Cluster mrcprm.Cluster   `json:"cluster"`
		Jobs    []mrcprm.JobSpec `json:"jobs"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&prob); err != nil {
		return mrcprm.Cluster{}, nil, fmt.Errorf("parsing problem: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return mrcprm.Cluster{}, nil, errors.New("parsing problem: unexpected data after the JSON value")
	}
	jobs := make([]*mrcprm.Job, len(prob.Jobs))
	for i, spec := range prob.Jobs {
		j, err := spec.Job(i)
		if err != nil {
			return mrcprm.Cluster{}, nil, fmt.Errorf("job %d: %w", i, err)
		}
		jobs[i] = j
	}
	return prob.Cluster, jobs, nil
}

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
