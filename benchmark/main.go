// Command benchmark is the repository's benchmark: it runs four named
// workloads through the simulator's public entry points, checks every
// op's result, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics). See README.md for the workloads, metrics and run rules.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh -workload ring-serial -seed 1 -seconds 20
//	bash benchmark/run.sh -runs 5 -out parent.json       # every workload, seeds 1..5
//	bash benchmark/run.sh -compare parent.json change.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	wlName := flag.String("workload", "", "workload to run (default: every workload)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "run children for at least this long (at least 4 children)")
	trace := flag.Int("trace", 0, "1: traced run, printing per-layer metrics and writing spans to -trace-dir")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for the traced run's span files")
	runs := flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	out := flag.String("out", "", "write the runs and their spread to this JSON file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files: -compare parent.json change.json")
	child := flag.Int("child", -1, "internal: run as child process k of a run")
	childTrace := flag.String("child-trace", "", "internal: profile the child and write its spans here")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files: parent.json change.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	case *child >= 0:
		var wl *workload
		if wl, err = workloadByName(*wlName); err == nil {
			err = runChild(os.Stdout, wl, fullSize, *seed, *child, *childTrace)
		}
	default:
		err = runMain(*wlName, *seed, *seconds, *trace == 1, *traceDir, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(name string, seed int64, seconds int, traced bool, traceDir string, runs int, outFile string) error {
	wls := workloads
	if name != "" {
		wl, err := workloadByName(name)
		if err != nil {
			return err
		}
		wls = []*workload{wl}
	}
	sum := summaryFile{Workloads: map[string]*workloadRuns{}}
	for _, wl := range wls {
		wr := &workloadRuns{}
		sum.Workloads[wl.name] = wr
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			traceFile := ""
			if traced {
				traceFile = filepath.Join(traceDir, fmt.Sprintf("%s.seed%d.trace.json", wl.name, s))
			}
			rr := measure(wl, s, seconds, traceFile)
			res, dig, err := report(rr, traced)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, s, err)
			}
			wr.Runs = append(wr.Runs, runSummary{Seed: s, Attempted: res.Attempted, Failed: res.Failed, Digest: dig, Metrics: res.Metrics})
			if traced {
				fmt.Printf("  spans: %s\n", traceFile)
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
	}
	if outFile == "" {
		return nil
	}
	for _, wr := range sum.Workloads {
		wr.derive()
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outFile, append(b, '\n'), 0o644)
}

// report prints a run's metrics by name with units and returns its result
// line and simulation digest.
func report(rr *runResult, traced bool) (result, string, error) {
	res := result{Attempted: rr.attempted, Failed: rr.failed}
	res.Correct = rr.failed == 0 && len(rr.errs) == 0
	dig := digest(rr.fixed())
	fmt.Printf("%s seed %d: %d children, %d ops attempted, %d failed, sim_digest %s\n",
		rr.workload.name, rr.seed, rr.children, rr.attempted, rr.failed, dig)
	for i, e := range rr.errs {
		if i == 5 {
			fmt.Printf("  ... %d more errors\n", len(rr.errs)-i)
			break
		}
		fmt.Printf("  error: %s\n", e)
	}
	var vals map[string]float64
	var err error
	defs := endToEnd
	if traced {
		vals, err = perLayerMetrics(rr)
		defs = perLayer()
	} else {
		vals, err = endToEndMetrics(rr)
	}
	if err != nil {
		return res, dig, err
	}
	res.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return res, dig, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	return res, dig, nil
}
