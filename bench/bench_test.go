package main

import (
	"bytes"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// smokeConfig runs a workload on two apps (one on stress) with a single
// timed pass; set-up is measured in the test process itself.
func smokeConfig(t *testing.T, w workload, trace bool, log *bytes.Buffer) config {
	n := 2
	if w.name == "stress" {
		n = 1
	}
	return config{w: w, seed: 1, n: n, minPasses: 1, trace: trace, workDir: t.TempDir(), log: log}
}

// checkMetrics asserts that a run printed exactly the metrics the spec
// lists, each with its unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []specMetric) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", label, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, g.Unit, m.Unit)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
	}
}

func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specNames, names []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(specNames)
	sort.Strings(names)
	if !slices.Equal(specNames, names) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", specNames, names)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			defer func() {
				if t.Failed() {
					t.Log(log.String())
				}
			}()
			_, res, err := runWorkload(smokeConfig(t, w, false, &log))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("end-to-end run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, "end-to-end", res.Metrics, sp.EndToEnd)

			// The traced run fails an app whose decomposed report or
			// propagation count differs from core.AnalyzeApp's.
			c := smokeConfig(t, w, true, &log)
			r, err := newRunner(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.setUp(); err != nil {
				t.Fatal(err)
			}
			timed, err := r.timed(0)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := r.traced(0)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Errorf("traced run: %d of %d analyses failed", r.failed, r.attempted)
			}
			m := tr.metrics(timed)
			checkMetrics(t, "per-layer", m, sp.PerLayer)
			checkClosure(t, tr.t.spans)
			sum := m["unattributed.share"].Value
			for _, l := range layers {
				sum += m[l.name+".share"].Value
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Errorf("layer shares plus unattributed sum to %v, want 1", sum)
			}
		})
	}
}

// checkClosure asserts that every layer span lies inside its app span and
// that layer spans do not overlap, so the layer times plus the app span's
// self time add up to the app's wall time.
func checkClosure(t *testing.T, spans []span) {
	t.Helper()
	apps := 0
	end := int64(-1)
	for _, sp := range spans {
		if sp.EndNS < sp.StartNS {
			t.Fatalf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		if sp.Parent < 0 {
			if sp.Name == "app" {
				apps++
				end = sp.StartNS
			}
			continue
		}
		root := spans[sp.Parent]
		if root.Name != "app" || sp.StartNS < root.StartNS || sp.EndNS > root.EndNS {
			t.Fatalf("span %d (%s) lies outside its app span", sp.ID, sp.Name)
		}
		if sp.StartNS < end {
			t.Fatalf("span %d (%s) overlaps the previous layer span", sp.ID, sp.Name)
		}
		end = sp.EndNS
	}
	if apps == 0 {
		t.Fatal("no app spans recorded")
	}
}

// TestQuantile pins the quartile method to Python's
// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}
