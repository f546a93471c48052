package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for each workload and end-to-end metric, the two
// medians, the change's delta, the bound and a verdict.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readSummary(parentPath)
	if err != nil {
		return err
	}
	change, err := readSummary(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %8s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	for _, name := range workloadNames(parent) {
		pr, cr := parent.Workloads[name], change.Workloads[name]
		if len(pr.Runs) == 0 || cr == nil || len(cr.Runs) == 0 {
			fmt.Fprintf(w, "%-14s has no runs in one of the files\n", name)
			continue
		}
		for _, d := range endToEnd {
			pv, cv := values(pr.Runs, d.name), values(cr.Runs, d.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pm, cm := median(pv), median(cv)
			fmt.Fprintf(w, "%-14s %-12s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n",
				name, d.name, pm, cm, 100*(cm-pm)/pm, 100*d.bound, verdict(d, pv, cv))
		}
		fmt.Fprintf(w, "%-14s %-12s %14s %14s\n", name, "failed", failedText(pr.Runs), failedText(cr.Runs))
		fmt.Fprintf(w, "%-14s %-12s %14s %14s\n", name, "sim_digest", pr.Runs[0].Digest, cr.Runs[0].Digest)
	}
	return nil
}

// verdict judges a change's runs against the parent's by their medians:
// worse or better when the median moves by more than the metric's bound.
// When the runs' spread (quartile distance over median) is wider than the
// bound the verdict is unresolved, unless every run of the change beats
// every run of the parent.
func verdict(d metricDef, parent, change []float64) string {
	bound := d.bound
	pm, cm := median(parent), median(change)
	worsening := (cm - pm) / pm
	if d.higherBetter {
		worsening = -worsening
	}
	switch {
	case max(relSpread(parent), relSpread(change)) > bound:
		sp, sc := sorted(parent), sorted(change)
		if (d.higherBetter && sc[0] > sp[len(sp)-1]) || (!d.higherBetter && sc[len(sc)-1] < sp[0]) {
			return "better"
		}
		return "unresolved"
	case worsening > bound:
		return "worse"
	case -worsening > bound:
		return "better"
	}
	return "same"
}

// relSpread is the distance between the quartiles as a share of the median.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func failedText(runs []runSummary) string {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return fmt.Sprintf("%d/%d", failed, attempted)
}

// summaryFile is what -out writes and -compare reads.
type summaryFile struct {
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Runs []runSummary `json:"runs"`
	// Metrics is each metric's spread over the runs.
	Metrics map[string]*spread `json:"metrics,omitempty"`
}

type runSummary struct {
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"sim_digest"`
	Metrics   map[string]metric `json:"metrics"`
}

type spread struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// DerivedBound is the bound these runs alone would give the metric: the
	// larger of 10% and 1.5 times (max-min)/median, at most 25%; 25% for
	// set-up time, which is short and noisy. The fixed bounds in
	// BENCHMARK.json take the largest seen.
	DerivedBound float64 `json:"derived_bound"`
}

func (wr *workloadRuns) derive() {
	wr.Metrics = map[string]*spread{}
	for name := range wr.Runs[0].Metrics {
		vals := sorted(values(wr.Runs, name))
		sp := &spread{Unit: wr.Runs[0].Metrics[name].Unit, Median: median(vals), Min: vals[0], Max: vals[len(vals)-1]}
		sp.DerivedBound = 0.25
		if name != "setup_s" && sp.Median != 0 {
			sp.DerivedBound = min(0.25, max(0.10, 1.5*(sp.Max-sp.Min)/sp.Median))
		}
		wr.Metrics[name] = sp
	}
}

func values(runs []runSummary, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

func readSummary(path string) (*summaryFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summaryFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func workloadNames(s *summaryFile) []string {
	var names []string
	for _, wl := range workloads {
		if _, ok := s.Workloads[wl.name]; ok {
			names = append(names, wl.name)
		}
	}
	return names
}
