// Package baseline implements the comparison analyzers of Table 1: two
// coarse taint analyzers modeling the documented failure modes of IBM
// AppScan Source and HP Fortify SCA, plus the ablation configurations the
// benchmark harness sweeps over.
//
// The commercial tools themselves are proprietary; per the paper's
// diagnosis their weaknesses are (a) a missing or single-pass lifecycle
// model, (b) poor callback handling beyond XML-declared handlers, and
// (c) ignoring the manifest's enabled flags — while they pattern-match
// simple cases like constant array indices that FlowDroid's conservative
// array model does not. The analyzers below implement exactly those
// behaviours on top of the shared engine, so the comparison isolates the
// modeling differences rather than implementation quality.
package baseline

import (
	"fmt"

	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/lifecycle"
)

// AppScanOptions is the AppScan-Source-like configuration: no lifecycle
// model (component creation only), XML callbacks only, disabled
// components analyzed anyway, constant array indices distinguished.
func AppScanOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Lifecycle = lifecycle.Options{
		Mode:                  lifecycle.CreateOnly,
		InvokeCallbacks:       true,
		RunStaticInitializers: true,
		XMLCallbacksOnly:      true,
		IncludeDisabled:       true,
	}
	opts.Taint.ArrayIndexSensitive = true
	return opts
}

// FortifyOptions is the Fortify-SCA-like configuration: a single-pass
// (flat) lifecycle in canonical order, XML callbacks only, disabled
// components analyzed anyway, constant array indices distinguished.
func FortifyOptions() core.Options {
	opts := AppScanOptions()
	opts.Lifecycle.Mode = lifecycle.FlatLifecycle
	return opts
}

// analyzer wraps a core configuration into a DroidBench analyzer. The
// run is isolated: a panicking configuration yields a per-case error,
// never a crashed sweep.
func analyzer(name string, opts func() core.Options) droidbench.Analyzer {
	return droidbench.Analyzer{
		Name: name,
		Run:  func(files map[string]string) (int, error) { return safeAnalyze(files, opts()) },
	}
}

// safeAnalyze runs one app through the pipeline, converting panics that
// escape the core stage guards into errors so ablation sweeps and tool
// comparisons always finish. A run that does not complete is the case's
// error.
func safeAnalyze(files map[string]string, opts core.Options) (found int, err error) {
	defer func() {
		if r := recover(); r != nil {
			found, err = 0, fmt.Errorf("baseline: panic: %v", r)
		}
	}()
	return droidbench.Count(files, opts)
}

// AppScanLike is the AppScan Source stand-in.
func AppScanLike() droidbench.Analyzer { return analyzer("AppScan", AppScanOptions) }

// FortifyLike is the Fortify SCA stand-in.
func FortifyLike() droidbench.Analyzer { return analyzer("Fortify", FortifyOptions) }

// Ablation identifies one engine feature switched off relative to the
// full FlowDroid configuration.
type Ablation struct {
	Name   string
	Mutate func(*core.Options)
}

// Ablations enumerates the design-choice ablations DESIGN.md calls out,
// swept by the benchmark harness (experiment E8).
func Ablations() []Ablation {
	return []Ablation{
		{"full", func(o *core.Options) {}},
		{"no-alias-analysis", func(o *core.Options) { o.Taint.EnableAliasing = false }},
		{"no-activation (Andromeda)", func(o *core.Options) { o.Taint.EnableActivation = false }},
		{"no-context-injection", func(o *core.Options) { o.Taint.InjectContext = false }},
		{"field-insensitive", func(o *core.Options) { o.Taint.FieldSensitive = false }},
		{"flow-insensitive-locals", func(o *core.Options) { o.Taint.FlowSensitive = false }},
		{"no-lifecycle", func(o *core.Options) { o.Lifecycle.Mode = lifecycle.CreateOnly }},
		{"flat-lifecycle", func(o *core.Options) { o.Lifecycle.Mode = lifecycle.FlatLifecycle }},
		{"no-taint-wrapper", func(o *core.Options) { o.Taint.Wrapper = nil }},
		{"cha-callgraph", func(o *core.Options) { o.UseCHA = true }},
	}
}

// AblationAnalyzer builds a DroidBench analyzer for one ablation.
func AblationAnalyzer(a Ablation) droidbench.Analyzer {
	return droidbench.Analyzer{
		Name: a.Name,
		Run: func(files map[string]string) (int, error) {
			opts := core.DefaultOptions()
			a.Mutate(&opts)
			return safeAnalyze(files, opts)
		},
	}
}

// APLengthAnalyzer builds an analyzer with a fixed maximal access-path
// length, for the E8 precision/performance sweep.
func APLengthAnalyzer(k int) droidbench.Analyzer {
	return droidbench.Analyzer{
		Name: "ap-len-" + itoa(k),
		Run: func(files map[string]string) (int, error) {
			opts := core.DefaultOptions()
			opts.Taint.APLength = k
			return safeAnalyze(files, opts)
		},
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Table1 runs the full three-tool comparison and renders it in the
// paper's format.
func Table1() string {
	analyzers := []droidbench.Analyzer{AppScanLike(), FortifyLike(), droidbench.FlowDroid()}
	names := make([]string, len(analyzers))
	results := make([][]droidbench.CaseResult, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
		results[i] = droidbench.RunSuite(a)
	}
	return droidbench.RenderTable(names, results)
}
