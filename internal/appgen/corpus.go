package appgen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flowdroid/internal/core"
)

// TimeRollup aggregates per-app wall times for one outcome class.
// Splitting the rollups by outcome keeps the headline mean honest: a
// deadline-truncated app's time is capped by the timeout and a
// panic-recovered app stops mid-flight, so blending either into the
// completed apps' mean silently skews it.
type TimeRollup struct {
	Apps            int
	Min, Max, Total time.Duration
	Slowest         string
}

func (r *TimeRollup) observe(app string, el time.Duration) {
	r.Apps++
	r.Total += el
	if r.Min == 0 || el < r.Min {
		r.Min = el
	}
	if el > r.Max {
		r.Max = el
		r.Slowest = app
	}
}

// Avg is the mean per-app wall time of this outcome class.
func (r TimeRollup) Avg() time.Duration {
	if r.Apps == 0 {
		return 0
	}
	return r.Total / time.Duration(r.Apps)
}

// CorpusStats aggregates an RQ3 corpus run.
type CorpusStats struct {
	Profile       string
	Apps          int
	AppsWithLeaks int
	TotalFound    int
	TotalInjected int
	BySink        map[string]int

	// Times holds one wall-time rollup per outcome, keyed by
	// core.Status.String() plus "Error" for load failures and escaped
	// panics (which count as "Recovered"). Completed apps are
	// Times["Complete"], so truncated and recovered apps cannot distort
	// the aggregate means; Times[k].Apps is the number of apps with
	// outcome k (zero for an absent key).
	Times map[string]TimeRollup

	// Resilience accounting: apps whose analysis was cut short are
	// detailed in Failures; a truncated or recovered app never aborts
	// the batch.
	Failures   []string
	Incomplete int // batch stopped early: apps never attempted

	// PassTimes sums each pipeline pass's build wall time across all
	// apps — the corpus-level slowest-pass table.
	PassTimes map[string]time.Duration

	// QueriedSinks echoes the options' Query.Sinks; non-empty means the
	// corpus ran in demand-driven query mode and the cone counters are
	// meaningful.
	QueriedSinks []string
	// Counters sums every analyzed app's core.Counters: cone sizes,
	// reflection soundness, summary-store effect and write-back errors.
	Counters core.Counters
}

// RunOptions harden a corpus run beyond the per-app core.Options. The
// zero value reproduces the unbounded historical behaviour.
type RunOptions struct {
	// Timeout bounds each app's analysis (0 = none).
	Timeout time.Duration
	// FaultInject names an app whose analysis is made to panic, for
	// exercising the batch isolation path (chaos testing).
	FaultInject string
}

// AvgLeaksPerApp is the paper's "1.85 leaks per application" figure.
func (s CorpusStats) AvgLeaksPerApp() float64 {
	if s.Apps == 0 {
		return 0
	}
	return float64(s.TotalFound) / float64(s.Apps)
}

// observe adds one app's wall time to the rollup of its outcome.
func (s *CorpusStats) observe(outcome, app string, el time.Duration) {
	r := s.Times[outcome]
	r.observe(app, el)
	s.Times[outcome] = r
}

// RunCorpus generates and analyzes n apps of a profile with FlowDroid's
// default configuration and no per-app bounds.
func RunCorpus(p Profile, n int, seed int64) (CorpusStats, error) {
	return RunCorpusWith(context.Background(), p, n, seed, core.DefaultOptions(), RunOptions{})
}

// RunCorpusWith generates and analyzes n apps, each under opts (one
// opts.SummaryStore serves the whole corpus) and the per-app bounds of
// ro. Per-app failures — panics, timeouts, exhausted budgets, load
// errors — are isolated: the offending app is counted and described in
// stats.Failures while the rest of the batch proceeds normally. The
// batch-level context stops the whole run early; apps never attempted
// are counted in stats.Incomplete.
func RunCorpusWith(ctx context.Context, p Profile, n int, seed int64, opts core.Options, ro RunOptions) (CorpusStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stats := CorpusStats{
		Profile:      p.Name,
		BySink:       make(map[string]int),
		PassTimes:    make(map[string]time.Duration),
		Times:        make(map[string]TimeRollup),
		QueriedSinks: opts.Query.Sinks,
	}
	apps := GenerateCorpus(p, n, seed)
	for i, app := range apps {
		if ctx.Err() != nil {
			stats.Incomplete = len(apps) - i
			break
		}
		start := time.Now()
		res, err := analyzeOne(ctx, app, opts, ro)
		el := time.Since(start)
		stats.Apps++
		stats.TotalInjected += app.InjectedLeaks
		if err != nil {
			// The wall time of a failed app goes into its own rollup, never
			// into the completed-apps aggregate.
			if pe, ok := err.(*panicErr); ok {
				stats.observe(core.Recovered.String(), app.Name, el)
				stats.Failures = append(stats.Failures, fmt.Sprintf("%s: recovered from %v", app.Name, pe.value))
			} else {
				stats.observe("Error", app.Name, el)
				stats.Failures = append(stats.Failures, fmt.Sprintf("%s: %v", app.Name, err))
			}
			continue
		}
		stats.observe(res.Status.String(), app.Name, el)
		switch res.Status {
		case core.Recovered:
			stats.Failures = append(stats.Failures, fmt.Sprintf("%s: recovered from panic in stage %s", app.Name, res.Failure.Stage))
		case core.DeadlineExceeded:
			stats.Failures = append(stats.Failures, fmt.Sprintf("%s: deadline exceeded (%d propagations done)", app.Name, res.Counters.Propagations))
		case core.BudgetExhausted:
			stats.Failures = append(stats.Failures, fmt.Sprintf("%s: propagation budget exhausted", app.Name))
		case core.LeakLimitReached:
			stats.Failures = append(stats.Failures, fmt.Sprintf("%s: leak cap reached (truncated report)", app.Name))
		}
		for pass, d := range res.PassTimes {
			stats.PassTimes[pass] += d
		}
		stats.Counters.Add(res.Counters)
		leaks := res.Leaks()
		stats.TotalFound += len(leaks)
		if len(leaks) > 0 {
			stats.AppsWithLeaks++
		}
		for _, l := range leaks {
			stats.BySink[l.SinkSpec.Label]++
		}
	}
	return stats, nil
}

// panicErr marks a panic the batch driver recovered from itself (as
// opposed to one the core pipeline already converted into a Recovered
// result).
type panicErr struct{ value any }

func (e *panicErr) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// analyzeOne analyzes a single app under opts and the per-app bounds,
// converting any panic that escapes the core pipeline's own stage
// recovery (or is injected via RunOptions.FaultInject) into an error so
// the batch survives.
func analyzeOne(ctx context.Context, app App, opts core.Options, ro RunOptions) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &panicErr{r}
		}
	}()
	if ro.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ro.Timeout)
		defer cancel()
	}
	if ro.FaultInject != "" && ro.FaultInject == app.Name {
		panic("appgen: injected fault in " + app.Name)
	}
	return core.AnalyzeFiles(ctx, app.Files, opts)
}

// Render prints the RQ3 summary in the style of Section 6.3.
func (s CorpusStats) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "corpus %q: %d apps analyzed\n", s.Profile, s.Apps)
	fmt.Fprintf(&sb, "  apps with at least one leak: %d (%.0f%%)\n",
		s.AppsWithLeaks, 100*float64(s.AppsWithLeaks)/float64(max(1, s.Apps)))
	fmt.Fprintf(&sb, "  leaks found: %d (injected ground truth: %d), %.2f leaks/app\n",
		s.TotalFound, s.TotalInjected, s.AvgLeaksPerApp())
	if comp := s.Times[core.Complete.String()]; comp.Apps > 0 {
		fmt.Fprintf(&sb, "  analysis time (completed apps): avg %v, min %v, max %v (slowest: %s)\n",
			comp.Avg().Round(time.Microsecond), comp.Min.Round(time.Microsecond),
			comp.Max.Round(time.Microsecond), comp.Slowest)
	}
	var outcomes []string
	for k, r := range s.Times {
		if k != core.Complete.String() && r.Apps > 0 {
			outcomes = append(outcomes, k)
		}
	}
	sort.Strings(outcomes)
	for _, k := range outcomes {
		r := s.Times[k]
		fmt.Fprintf(&sb, "  analysis time (%s): %d app(s), avg %v, max %v (slowest: %s)\n",
			k, r.Apps, r.Avg().Round(time.Microsecond), r.Max.Round(time.Microsecond), r.Slowest)
	}
	var sinks []string
	for k := range s.BySink {
		sinks = append(sinks, k)
	}
	sort.Strings(sinks)
	for _, k := range sinks {
		fmt.Fprintf(&sb, "  leaks into %-12s %d\n", k+":", s.BySink[k])
	}
	c := s.Counters
	if c.Bodies > 0 {
		fmt.Fprintf(&sb, "  method bodies parsed: %d of %d (%.0f%%, summed across apps)\n",
			c.BodiesParsed, c.Bodies, 100*float64(c.BodiesParsed)/float64(c.Bodies))
	}
	if c.ReflectionResolved+c.ReflectionUnresolved > 0 {
		fmt.Fprintf(&sb, "  reflection: %d site(s) resolved into call edges, %d left opaque (see soundness reports)\n",
			c.ReflectionResolved, c.ReflectionUnresolved)
	}
	if len(s.QueriedSinks) > 0 {
		fmt.Fprintf(&sb, "  sink query [%s]: %d examined method(s) in the reachability cone, %d component(s) skipped (summed across apps)\n",
			strings.Join(s.QueriedSinks, ", "), c.ConeMethods, c.SkippedComponents)
	}
	if c.MethodsReused+c.MethodsExplored > 0 {
		fmt.Fprintf(&sb, "  summary store: %d hit(s), %d miss(es), %d invalidated; %d method(s) reused, %d explored\n",
			c.SummaryHits, c.SummaryMisses, c.SummaryInvalidated, c.MethodsReused, c.MethodsExplored)
	}
	if c.SummaryFlushErrors > 0 {
		fmt.Fprintf(&sb, "  summary store: %d write-back error(s), those apps' summaries not persisted\n", c.SummaryFlushErrors)
	}
	if len(s.PassTimes) > 0 {
		type pt struct {
			name string
			d    time.Duration
		}
		table := make([]pt, 0, len(s.PassTimes))
		for name, d := range s.PassTimes {
			table = append(table, pt{name, d})
		}
		sort.Slice(table, func(i, j int) bool {
			if table[i].d != table[j].d {
				return table[i].d > table[j].d
			}
			return table[i].name < table[j].name
		})
		sb.WriteString("  slowest passes (total build time across apps):\n")
		for _, e := range table {
			fmt.Fprintf(&sb, "    %-12s %v\n", e.name+":", e.d.Round(time.Microsecond))
		}
	}
	apps := func(outcome string) int { return s.Times[outcome].Apps }
	recovered, timedOut := apps(core.Recovered.String()), apps(core.DeadlineExceeded.String())
	exhausted, leakCapped := apps(core.BudgetExhausted.String()), apps(core.LeakLimitReached.String())
	if recovered+timedOut+exhausted+leakCapped+apps("Error")+s.Incomplete > 0 {
		fmt.Fprintf(&sb, "  abnormal outcomes: %d recovered, %d timed out, %d budget-exhausted, %d leak-capped, %d errors, %d never attempted\n",
			recovered, timedOut, exhausted, leakCapped, apps("Error"), s.Incomplete)
		for _, f := range s.Failures {
			fmt.Fprintf(&sb, "    %s\n", f)
		}
	}
	return sb.String()
}

// WriteApp materializes a generated app as an on-disk package under dir,
// in the layout cmd/flowdroid accepts (AndroidManifest.xml, res/layout/,
// classes.ir).
func WriteApp(app App, dir string) error {
	for p, content := range app.Files {
		full := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return fmt.Errorf("appgen: %w", err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			return fmt.Errorf("appgen: %w", err)
		}
	}
	return nil
}

// ExportCorpus generates n apps and writes each into its own subdirectory
// of root, returning the generated apps.
func ExportCorpus(p Profile, n int, seed int64, root string) ([]App, error) {
	apps := GenerateCorpus(p, n, seed)
	for _, app := range apps {
		if err := WriteApp(app, filepath.Join(root, app.Name)); err != nil {
			return nil, err
		}
	}
	return apps, nil
}
