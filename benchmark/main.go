// Command benchmark is the repository's one benchmark: four named
// workloads over the whole system — library, on-disk index, gkserved as a
// separate process, and the typed client — reporting end-to-end metrics
// with regression bounds and, on a traced run, a per-layer ladder timed
// from outside. BENCHMARK.json at the repository root names this directory;
// README.md beside this file is the workload and metric reference.
//
//	go run ./benchmark -workload serve-read -seed 1            # one workload
//	go run ./benchmark -workload serve-read -seed 1 -trace 1   # its layer ladder
//	go run ./benchmark -all -seed 1 -out A.json                # all four, one file
//	go run ./benchmark -agree A.json B.json                    # do two sets agree?
//	go run ./benchmark -list                                   # names, units, bounds
//
// Run it from the root of the checkout: it compiles cmd/gkserved from
// there, and keeps everything it writes under .bench_build/.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	defaultSeconds = 20 // run_seconds in BENCHMARK.json
	smokeSeconds   = 6
	buildDir       = ".bench_build"
)

// keepDir is the directory that outlives a run: the compiled gkserved is
// kept there between runs, and a traced run leaves trace-<workload>.json.
func (o options) keepDir() string { return filepath.Dir(o.workDir) }

// runWorkload runs one workload in a fresh scratch directory under parent
// and removes the directory again.
func runWorkload(o options, parent string) (*result, error) {
	var err error
	if err = os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	if o.workDir, err = os.MkdirTemp(parent, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.workDir)
	r := newRunner(o)
	if err := r.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload.Name, err)
	}
	return r.res, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: cluster-offline, search-inproc, serve-read or serve-mixed")
		all      = flag.Bool("all", false, "run all four workloads, one after the other")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "seconds of timed phases per workload (default 20, or 6 with -smoke)")
		trace    = flag.Int("trace", 0, "1 records spans and measures the per-layer ladder as well")
		smoke    = flag.Bool("smoke", false, "tiny corpus and short phases: exercises everything, measures nothing")
		out      = flag.String("out", "", "write the full results (segments, IQRs, environment, checks) to this JSON file")
		doList   = flag.Bool("list", false, "print every workload and metric with unit, direction and bound, and exit")
		doAgree  = flag.Bool("agree", false, "compare two result files given as arguments; exit 1 if they disagree")
	)
	flag.Parse()
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
		os.Exit(code)
	}

	switch {
	case *doList:
		list(os.Stdout)
		return
	case *doAgree:
		if flag.NArg() != 2 {
			fail(2, "-agree needs two result files")
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			fail(2, "%v", err)
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			fail(2, "%v", err)
		}
		if n := agree(os.Stdout, a, b); n > 0 {
			fail(1, "%d disagreements", n)
		}
		return
	}

	var todo []workloadSpec
	if *all {
		todo = workloads
	} else if wl, ok := findWorkload(*workload); ok {
		todo = []workloadSpec{wl}
	} else {
		fail(2, "unknown workload %q (see -list)", *workload)
	}
	if *seconds <= 0 {
		*seconds = defaultSeconds
		if *smoke {
			*seconds = smokeSeconds
		}
	}
	// The daemon is compiled from this checkout, so this must be its root.
	for _, need := range []string{"go.mod", filepath.Join("cmd", "gkserved")} {
		if _, err := os.Stat(need); err != nil {
			fail(2, "run from the root of the checkout: %v", err)
		}
	}

	var results []*result
	for _, wl := range todo {
		res, err := runWorkload(options{workload: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}, buildDir)
		if err != nil {
			fail(1, "%v", err)
		}
		results = append(results, res)
		res.print(os.Stdout)
		if *out != "" {
			if err := writeResults(*out, results); err != nil {
				fail(1, "%v", err)
			}
		}
		fmt.Println(res.contractLine())
	}
}
