package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json -compare and the smoke test read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns collects the end-to-end values of every run captured in a
// file: each run prints an info line naming its workload, then its
// result line. It returns values[workload][metric].
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Bench *runInfo `json:"bench"`
			result
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Bench != nil:
			workload = line.Bench.Workload
			if line.Bench.Trace {
				workload = "" // traced runs carry per-layer metrics only
			}
		case line.Metrics != nil && workload != "":
			if out[workload] == nil {
				out[workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				out[workload][name] = append(out[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return out, sc.Err()
}

// summary is a metric's median and quartiles over runs.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return (s.q3 - s.q1) / s.med }

// compareRuns prints, for each workload and end-to-end metric, the
// medians and quartiles of runs A and B and a verdict under the metric's
// bound: "unresolved" when either side's spread exceeds the bound,
// "worse" when B's median is worse than A's by more than the bound,
// "same" otherwise. It exits 1 when any verdict is "worse".
func compareRuns(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readRuns(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRuns(pathB); err == nil {
			return printComparison(sp, a, b, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func printComparison(sp *spec, a, b map[string]map[string][]float64, stdout, stderr io.Writer) int {
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no workload")
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1..q3\tB median\tB q1..q3\tchange\tspread\tbound\tverdict\t")
	code := 0
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) < 3 || len(vb) < 3 {
				fmt.Fprintf(stderr, "bench: %s %s: need at least 3 runs on each side, have %d and %d\n", w, m.Name, len(va), len(vb))
				return 2
			}
			sa, sb := summarize(va), summarize(vb)
			change := (sb.med - sa.med) / sa.med
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			spread := max(sa.spread(), sb.spread())
			verdict := "same"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%.6g..%.6g\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n",
				w, m.Name, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, 100*change, 100*spread, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}
