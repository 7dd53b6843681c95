package main

import (
	"fmt"
	"slices"
	"strings"

	"flowdroid/internal/appgen"
	"flowdroid/internal/ir"
	"flowdroid/internal/taint"
)

// workload is one input population of the benchmark. Every app is
// generated from the run's seed; the program under test sees only the
// generated files.
type workload struct {
	name    string
	profile appgen.Profile
	// n is the number of apps one pass analyzes.
	n int
	// sinks, when non-empty, runs every app under this sink query.
	sinks []string
	// update seeds a summary store with the generated apps, mutates 2% of
	// their methods and times the warm re-analysis of the updated apps.
	update bool
}

// updateFraction is the share of methods play-update mutates per app.
const updateFraction = 0.02

// workloads lists the benchmark's inputs; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []workload{
	{
		name: "play",
		// Many small apps: load dominates; the constprop fixpoint, the
		// cone and the store are bypassed.
		profile: appgen.Play,
		n:       400,
	},
	{
		name: "stress",
		// ~20k IR lines per app: parsing and the taint solver dominate,
		// with the largest working set.
		profile: appgen.Stress,
		n:       100,
	},
	{
		name: "reflection",
		// Reflective leaks: the constprop fixpoint is ~40% of app time.
		profile: appgen.Reflection,
		n:       250,
	},
	{
		name: "malware-sms",
		// The only workload that runs the cone, component skipping and
		// zero-fact pruning.
		profile: appgen.Malware,
		n:       400,
		sinks:   []string{"sms"},
	},
	{
		name: "play-update",
		// Summary-store hashing, lookups, replay and write-back.
		profile: appgen.Play,
		n:       200,
		update:  true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Sink labels the oracle counts leaks under.
const (
	labelLog = iota
	labelPrefs
	labelSMS
	labelHTTP
	nLabels
)

var labelNames = [nLabels]string{"log", "preferences", "sms", "http-header"}

// kindLabel maps each leak kind appgen plants to the label of the sink
// it reaches. The oracle uses only this table and appgen's ground truth,
// never the analyzer.
var kindLabel = map[string]int{
	"imei->log":            labelLog,
	"password->log":        labelLog,
	"imei->reflect-log":    labelLog,
	"imei->reflect-sb-log": labelLog,
	"location->prefs":      labelPrefs,
	"imei->sms":            labelSMS,
	"broadcast->sms":       labelSMS,
	"imei->net":            labelHTTP,
}

// corpus is one workload's generated input.
type corpus struct {
	names []string
	// files are the packages the timed passes analyze.
	files []map[string]string
	// seedFiles are the pre-update packages a play-update store is
	// seeded with (nil on other workloads).
	seedFiles []map[string]string
	// want counts the planted leaks per sink label.
	want [][nLabels]int
	// irLines counts the IR lines of all files.
	irLines int
}

// generate builds the workload's corpus of n apps from seed.
func (w workload) generate(seed int64, n int) (*corpus, error) {
	apps := appgen.GenerateCorpus(w.profile, n, seed)
	c := &corpus{}
	for i, app := range apps {
		var want [nLabels]int
		for _, kind := range app.LeakKinds {
			l, ok := kindLabel[kind]
			if !ok {
				return nil, fmt.Errorf("%s: planted leak kind %q has no sink label", app.Name, kind)
			}
			if len(w.sinks) > 0 && !w.queried(l) {
				continue
			}
			want[l]++
		}
		files := app.Files
		if w.update {
			c.seedFiles = append(c.seedFiles, files)
			files, _ = appgen.MutateMethods(files, updateFraction, seed+int64(i))
		}
		c.names = append(c.names, app.Name)
		c.files = append(c.files, files)
		c.want = append(c.want, want)
		for p, src := range files {
			if strings.HasSuffix(p, ".ir") {
				c.irLines += strings.Count(src, "\n")
			}
		}
	}
	return c, nil
}

func (w workload) queried(label int) bool {
	return slices.Contains(w.sinks, labelNames[label])
}

// oracle checks a report against the planted leaks. It reuses its buffer
// so that checking a timed sample allocates nothing.
type oracle struct {
	seen []leakPair
}

type leakPair struct{ src, snk ir.Stmt }

// matches reports whether the distinct (source, sink) pairs of r, counted
// per sink label, equal want, with no leak into any other sink.
func (o *oracle) matches(r *taint.Results, want [nLabels]int) bool {
	o.seen = o.seen[:0]
	var got [nLabels]int
	for _, l := range r.Leaks {
		p := leakPair{snk: l.Sink}
		if s := l.Source(); s != nil {
			p.src = s.Stmt
		}
		if slices.Contains(o.seen, p) {
			continue
		}
		o.seen = append(o.seen, p)
		label := slices.Index(labelNames[:], l.SinkSpec.Label)
		if label < 0 {
			return false
		}
		got[label]++
	}
	return got == want
}
