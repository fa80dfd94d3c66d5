// Command obsreport digests a telemetry JSONL stream produced with
// -telemetry into a human-readable summary: solve-latency percentiles,
// solve-limit hit rate, objective convergence, and the sim time-series
// envelope.
//
// Usage:
//
//	obsreport run.jsonl
//	mrcpsim -telemetry /dev/stdout ... | obsreport
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mrcprm/internal/cli"
	"mrcprm/internal/obs"
)

func main() {
	common := cli.New()
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsreport [file.jsonl]  (reads stdin when no file is given)")
		flag.PrintDefaults()
	}
	common.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := obs.WriteReport(in, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}
