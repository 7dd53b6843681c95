package droidbench

import (
	"context"
	"fmt"
	"strings"

	"flowdroid/internal/core"
)

// Analyzer is a tool under evaluation: it maps an app package to the
// number of distinct leaks it reports.
type Analyzer struct {
	Name string
	Run  func(files map[string]string) (int, error)
}

// FlowDroid is the analyzer under test, in the paper's configuration.
func FlowDroid() Analyzer {
	return Analyzer{
		Name: "FlowDroid",
		Run:  func(files map[string]string) (int, error) { return Count(files, core.DefaultOptions()) },
	}
}

// Count analyzes an app package under opts and returns the number of
// distinct leaks it reports. A run that does not complete is the error.
func Count(files map[string]string, opts core.Options) (int, error) {
	res, err := core.AnalyzeFiles(context.Background(), files, opts)
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		return 0, err
	}
	return len(res.Leaks()), nil
}

// CaseResult is one (analyzer, case) outcome, scored DroidBench-style:
// reported leaks up to the expected count are true positives, surplus
// reports are false positives, shortfall is missed leaks.
type CaseResult struct {
	Case   Case
	Found  int
	TP     int
	FP     int
	Missed int
	Err    error
}

func score(c Case, found int) CaseResult {
	r := CaseResult{Case: c, Found: found}
	r.TP = min(found, c.ExpectedLeaks)
	r.FP = max(0, found-c.ExpectedLeaks)
	r.Missed = max(0, c.ExpectedLeaks-found)
	return r
}

// RunSuite evaluates the analyzer on every case. A case that panics or
// errors is scored as ERR and never aborts the rest of the suite.
func RunSuite(a Analyzer) []CaseResult {
	cases := Cases()
	out := make([]CaseResult, 0, len(cases))
	for _, c := range cases {
		found, err := runCase(a, c)
		r := score(c, found)
		r.Err = err
		out = append(out, r)
	}
	return out
}

// runCase isolates one analyzer invocation: a panic inside the analyzer
// becomes this case's error instead of taking the batch down.
func runCase(a Analyzer, c Case) (found int, err error) {
	defer func() {
		if r := recover(); r != nil {
			found, err = 0, fmt.Errorf("droidbench: %s on %s: panic: %v", a.Name, c.Name, r)
		}
	}()
	return a.Run(c.Files)
}

// SuiteScore aggregates a suite run into the bottom rows of Table 1.
type SuiteScore struct {
	TP, FP, Missed int
	Precision      float64
	Recall         float64
	F              float64
}

// Score sums case results into precision/recall/F-measure.
func Score(results []CaseResult) SuiteScore {
	var s SuiteScore
	for _, r := range results {
		s.TP += r.TP
		s.FP += r.FP
		s.Missed += r.Missed
	}
	if s.TP+s.FP > 0 {
		s.Precision = float64(s.TP) / float64(s.TP+s.FP)
	}
	if s.TP+s.Missed > 0 {
		s.Recall = float64(s.TP) / float64(s.TP+s.Missed)
	}
	if s.Precision+s.Recall > 0 {
		s.F = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
	return s
}

// marks renders a case result in the paper's circle notation: one ● per
// correct warning, one ○ per false warning, one · per missed leak; an
// empty cell means "no leaks expected, none reported".
func marks(r CaseResult) string {
	if r.Err != nil {
		return "ERR"
	}
	return strings.Repeat("●", r.TP) + strings.Repeat("○", r.FP) + strings.Repeat("·", r.Missed)
}

// RenderTable prints Table 1 for any set of analyzers whose results are
// given in the same case order.
func RenderTable(names []string, results [][]CaseResult) string {
	var sb strings.Builder
	sb.WriteString("● = correct warning, ○ = false warning, · = missed leak\n\n")
	fmt.Fprintf(&sb, "%-30s", "App Name")
	for _, n := range names {
		fmt.Fprintf(&sb, " %-12s", n)
	}
	sb.WriteString("\n")
	lastCat := ""
	for i, c := range Cases() {
		if c.Category != lastCat {
			lastCat = c.Category
			fmt.Fprintf(&sb, "--- %s\n", c.Category)
		}
		fmt.Fprintf(&sb, "%-30s", c.Name)
		for t := range names {
			fmt.Fprintf(&sb, " %-12s", marks(results[t][i]))
		}
		sb.WriteString("\n")
	}
	sb.WriteString(strings.Repeat("-", 30+13*len(names)) + "\n")
	row := func(label string, get func(SuiteScore) string) {
		fmt.Fprintf(&sb, "%-30s", label)
		for t := range names {
			fmt.Fprintf(&sb, " %-12s", get(Score(results[t])))
		}
		sb.WriteString("\n")
	}
	row("●, higher is better", func(s SuiteScore) string { return fmt.Sprintf("%d", s.TP) })
	row("○, lower is better", func(s SuiteScore) string { return fmt.Sprintf("%d", s.FP) })
	row("·, lower is better", func(s SuiteScore) string { return fmt.Sprintf("%d", s.Missed) })
	row("Precision p = TP/(TP+FP)", func(s SuiteScore) string { return fmt.Sprintf("%.0f%%", 100*s.Precision) })
	row("Recall r = TP/(TP+·)", func(s SuiteScore) string { return fmt.Sprintf("%.0f%%", 100*s.Recall) })
	row("F-measure 2pr/(p+r)", func(s SuiteScore) string { return fmt.Sprintf("%.2f", s.F) })
	return sb.String()
}
