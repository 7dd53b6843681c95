// Command irlint verifies IR programs without running any analysis: it
// parses each argument (an app package directory or zip, or a plain .ir
// file), runs the internal/irlint analyzers over the linked program and
// prints the diagnostics.
//
// Usage:
//
//	irlint [flags] <app-dir | app.zip | file.ir>...
//	irlint -fixtures
//	irlint -list
//
// -fixtures lints every program the repository ships — the test apps,
// InsecureBank, the DroidBench and SecuriBench Micro suites and a sample
// of generated corpus apps — which is how CI keeps the fixtures
// Error-clean.
//
// -json emits one envelope for the whole run:
//
//	{"packages": [{"package": ..., "diagnostics": [...],
//	               "errors": N, "warnings": M}, ...],
//	 "errors": N, "warnings": M}
//
// Exit codes: 0 = no Error diagnostics, 1 = at least one Error
// diagnostic, 2 = a program failed to load or parse, 64 = usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/ir"
	"flowdroid/internal/irlint"
	"flowdroid/internal/irtext"
	"flowdroid/internal/securibench"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/testapps"
)

const (
	exitClean  = 0
	exitErrors = 1
	exitLoad   = 2
	exitUsage  = 64
)

// pkgReport is one linted program in the JSON envelope.
type pkgReport struct {
	Package     string              `json:"package"`
	Diagnostics []irlint.Diagnostic `json:"diagnostics"`
	Errors      int                 `json:"errors"`
	Warnings    int                 `json:"warnings"`
}

// report is the whole run's envelope.
type report struct {
	Packages []pkgReport `json:"packages"`
	Errors   int         `json:"errors"`
	Warnings int         `json:"warnings"`
}

var flags = flag.NewFlagSet("irlint", flag.ContinueOnError)

func main() {
	var (
		enable    = flags.String("enable", "", "comma-separated analyzer names to run (default: all)")
		disable   = flags.String("disable", "", "comma-separated analyzer names to skip")
		jsonOut   = flags.Bool("json", false, "emit the diagnostics as a JSON envelope")
		rulesFile = flags.String("rules", "", "source/sink rules file checked by the registrations analyzer")
		fixtures  = flags.Bool("fixtures", false, "lint every program shipped in the repository")
		list      = flags.Bool("list", false, "list the registered analyzers and exit")
	)
	flags.SetOutput(os.Stderr)
	if err := flags.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(exitClean)
		}
		os.Exit(exitUsage)
	}

	if *list {
		for _, a := range irlint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		os.Exit(exitClean)
	}

	analyzers, err := irlint.Select(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "irlint:", err)
		os.Exit(exitUsage)
	}
	var rules string
	if *rulesFile != "" {
		data, err := os.ReadFile(*rulesFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irlint:", err)
			os.Exit(exitUsage)
		}
		rules = string(data)
	}

	var rep report
	switch {
	case *fixtures:
		if flags.NArg() > 0 {
			usageError("-fixtures takes no arguments")
		}
		rep = lintFixtures(analyzers)
	case flags.NArg() > 0:
		rep = lintArgs(flags.Args(), analyzers, rules)
	default:
		usageError("usage: irlint [flags] <app-dir | app.zip | file.ir>...  (or -fixtures)")
	}

	for _, p := range rep.Packages {
		rep.Errors += p.Errors
		rep.Warnings += p.Warnings
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "irlint:", err)
			os.Exit(exitLoad)
		}
	} else {
		for _, p := range rep.Packages {
			for _, d := range p.Diagnostics {
				fmt.Printf("%s: %s\n", p.Package, d)
			}
		}
		fmt.Printf("%d package(s): %d error(s), %d warning(s)\n",
			len(rep.Packages), rep.Errors, rep.Warnings)
	}
	if rep.Errors > 0 {
		os.Exit(exitErrors)
	}
	os.Exit(exitClean)
}

// lintArgs lints each command-line path: app package directories and
// zips are loaded through the apk loader (so layout click handlers are
// checked); anything else is parsed as an IR source file against the
// framework stubs.
func lintArgs(paths []string, analyzers []*irlint.Analyzer, rules string) report {
	var rep report
	for _, path := range paths {
		var (
			h        ir.Hierarchy
			handlers map[string][]string
		)
		switch {
		case strings.HasSuffix(path, ".ir"):
			prog := framework.NewProgram()
			data, err := os.ReadFile(path)
			if err != nil {
				loadError(err)
			}
			if err := irtext.ParseInto(prog, string(data), path); err != nil {
				loadError(err)
			}
			if err := prog.Link(); err != nil {
				loadError(err)
			}
			h = prog
		case strings.HasSuffix(path, ".zip") || strings.HasSuffix(path, ".apk"):
			app, err := apk.LoadZip(path)
			if err != nil {
				loadError(err)
			}
			h, handlers = app.Program, app.ClickHandlers()
		default:
			app, err := apk.LoadDir(path)
			if err != nil {
				loadError(err)
			}
			h, handlers = app.Program, app.ClickHandlers()
		}
		conf := irlint.Config{Analyzers: analyzers, ClickHandlers: handlers}
		if rules != "" {
			mgr, err := sourcesink.Parse(h, rules)
			if err != nil {
				loadError(err)
			}
			conf.Sources, conf.Sinks = mgr.Sources(), mgr.Sinks()
		}
		rep.Packages = append(rep.Packages, pkg(path, irlint.Run(h, conf)))
	}
	return rep
}

// lintFixtures lints every program the repository ships, one package
// entry per fixture, in deterministic name order within each suite.
func lintFixtures(analyzers []*irlint.Analyzer) report {
	var rep report
	lintApp := func(name string, files map[string]string) {
		app, err := apk.LoadFiles(files)
		if err != nil {
			loadError(fmt.Errorf("%s: %w", name, err))
		}
		res := irlint.Run(app.Program, irlint.Config{
			Analyzers:     analyzers,
			ClickHandlers: app.ClickHandlers(),
		})
		rep.Packages = append(rep.Packages, pkg(name, res))
	}

	lintApp("testapps/LeakageApp", testapps.LeakageApp)
	lintApp("testapps/LocationApp", testapps.LocationApp)
	lintApp("insecurebank", insecurebank.Files)
	for _, c := range droidbench.Cases() {
		lintApp("droidbench/"+c.Name, c.Files)
	}
	for _, c := range securibench.Cases() {
		prog, err := securibench.Program(c)
		if err != nil {
			loadError(err)
		}
		mgr, err := sourcesink.Parse(prog, securibench.Rules())
		if err != nil {
			loadError(err)
		}
		res := irlint.Run(prog, irlint.Config{
			Analyzers: analyzers,
			Sources:   mgr.Sources(),
			Sinks:     mgr.Sinks(),
		})
		rep.Packages = append(rep.Packages, pkg("securibench/"+c.Name, res))
	}
	for _, p := range []struct {
		name    string
		profile appgen.Profile
	}{{"play", appgen.Play}, {"malware", appgen.Malware}, {"stress", appgen.Stress}} {
		for _, app := range appgen.GenerateCorpus(p.profile, 3, 1) {
			lintApp("appgen/"+p.name+"/"+app.Name, app.Files)
		}
	}
	return rep
}

// pkg builds one package entry, with diagnostics already sorted and
// deduplicated by irlint.Run.
func pkg(name string, res *irlint.Result) pkgReport {
	d := res.Diagnostics
	if d == nil {
		d = []irlint.Diagnostic{}
	}
	return pkgReport{Package: name, Diagnostics: d, Errors: res.Errors(), Warnings: res.Warnings()}
}

func loadError(err error) {
	fmt.Fprintln(os.Stderr, "irlint:", err)
	os.Exit(exitLoad)
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	flags.PrintDefaults()
	os.Exit(exitUsage)
}
