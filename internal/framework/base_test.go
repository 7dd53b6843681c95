package framework_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/ir"
	"flowdroid/internal/securibench"
	"flowdroid/internal/summarystore"
)

// fingerprint renders everything about the shared framework classes an
// analysis could write to: each class's printed form and flags, each
// method's receiver and parameter types and local count, and the identity
// of each declared field.
func fingerprint(prog *ir.Program) string {
	var b strings.Builder
	for _, c := range prog.Classes() {
		b.WriteString(ir.PrintClass(c))
		fmt.Fprintf(&b, "interface=%v synthetic=%v %s:%d\n", c.Interface, c.Synthetic, c.File, c.Line)
		for _, m := range c.Methods() {
			if m.This != nil {
				fmt.Fprintf(&b, "%s this: %s\n", m, m.This.Type)
			}
			for _, p := range m.Params {
				fmt.Fprintf(&b, "%s %s: %s\n", m, p.Name, p.Type)
			}
			fmt.Fprintf(&b, "%s: %d locals\n", m, len(m.Locals()))
		}
		for _, f := range c.Fields() {
			fmt.Fprintf(&b, "%s %p\n", f, f)
		}
	}
	return b.String()
}

// TestSharedBaseIsImmutable analyzes small corpora of every benchmark
// workload profile, DroidBench, SecuriBench and InsecureBank concurrently,
// with 8 taint workers each, and checks the shared framework classes are
// unchanged afterwards. Under -race it also catches any write to them.
func TestSharedBaseIsImmutable(t *testing.T) {
	base := framework.NewProgram()
	if n := len(base.Classes()); n < 50 {
		t.Fatalf("the framework base has only %d classes", n)
	}
	before := fingerprint(base)

	opts := func() core.Options {
		o := core.DefaultOptions()
		o.Taint.Workers = 8
		return o
	}
	analyze := func(name string, files map[string]string, o core.Options) error {
		res, err := core.AnalyzeFiles(context.Background(), files, o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if res.Status != core.Complete {
			return fmt.Errorf("%s: status %v", name, res.Status)
		}
		return nil
	}
	corpus := func(p appgen.Profile, n int, o core.Options) func() error {
		return func() error {
			for _, app := range appgen.GenerateCorpus(p, n, 1) {
				if err := analyze(app.Name, app.Files, o); err != nil {
					return err
				}
			}
			return nil
		}
	}
	sms := opts()
	sms.Query = core.Query{Sinks: []string{"sms"}}
	storeDir := t.TempDir()
	jobs := map[string]func() error{
		"play":        corpus(appgen.Play, 4, opts()),
		"stress":      corpus(appgen.Stress, 1, opts()),
		"reflection":  corpus(appgen.Reflection, 4, opts()),
		"malware-sms": corpus(appgen.Malware, 4, sms),
		"play-update": func() error {
			o := opts()
			o.SummaryStore = summarystore.Open(filepath.Join(storeDir, "store"))
			for _, app := range appgen.GenerateCorpus(appgen.Play, 2, 1) {
				updated, _ := appgen.MutateMethods(app.Files, 0.02, 1)
				for _, files := range []map[string]string{app.Files, updated} {
					if err := analyze(app.Name, files, o); err != nil {
						return err
					}
				}
			}
			return nil
		},
		"droidbench": func() error {
			for _, c := range append(droidbench.Cases(), droidbench.ExtraCases()...) {
				if err := analyze(c.Name, c.Files, opts()); err != nil {
					return err
				}
			}
			return nil
		},
		"securibench": func() error {
			conf := securibench.Config()
			conf.Workers = 8
			for _, c := range securibench.Cases() {
				prog, err := securibench.Program(c)
				if err != nil {
					return err
				}
				var entries []*ir.Method
				for _, cls := range prog.Classes() {
					if m := cls.Method("doGet", 2); m != nil && !m.Abstract() {
						entries = append(entries, m)
					}
				}
				if _, err := core.AnalyzeJava(context.Background(), prog, securibench.Rules(), conf, entries...); err != nil {
					return fmt.Errorf("%s: %w", c.Name, err)
				}
			}
			return nil
		},
		"insecurebank": func() error { return analyze("insecurebank", insecurebank.Files, opts()) },
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for name, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := job(); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if after := fingerprint(framework.NewProgram()); after != before {
		t.Errorf("analyses changed the shared framework base:\n%s\nvs\n%s", after, before)
	}
}

// TestProgramsShareOnlyTheBase: two programs share their framework
// classes, and an app class added to one is invisible to the other.
func TestProgramsShareOnlyTheBase(t *testing.T) {
	a, b := framework.NewProgram(), framework.NewProgram()
	if len(a.Classes()) != len(b.Classes()) {
		t.Fatalf("%d vs %d framework classes", len(a.Classes()), len(b.Classes()))
	}
	for _, c := range a.Classes() {
		if b.Class(c.Name) != c {
			t.Errorf("%s: the two programs hold different *Class values", c.Name)
		}
	}
	n := len(b.Classes())
	cb := ir.NewClassIn(a, "com.example.Only", "")
	cb.Method("run", ir.Void).Return(nil).Done()
	if err := cb.Err(); err != nil {
		t.Fatal(err)
	}
	if err := a.Link(); err != nil {
		t.Fatal(err)
	}
	if a.Class("com.example.Only") == nil {
		t.Error("the added class is missing from its own program")
	}
	if b.Class("com.example.Only") != nil || len(b.Classes()) != n {
		t.Error("a class added to one program is visible in another")
	}
	if c := framework.NewProgram(); c.Class("com.example.Only") != nil {
		t.Error("a class added to one program is visible in a later one")
	}
}
