// Package securibench re-implements the evaluated subset of Stanford
// SecuriBench Micro (Section 6.4, Table 2 of the paper): J2EE
// servlet-style micro benchmarks across the nine categories the paper
// scores — Aliasing, Arrays, Basic, Collections, Datastructure, Factory,
// Inter, Session and StrongUpdates (121 expected leaks in total). The
// categories the paper omits (Pred, Reflection, Sanitizer) are omitted
// here too.
//
// Unlike DroidBench there is no Android lifecycle: each case's doGet
// methods are the entry points, and the source/sink configuration is the
// servlet API (request parameters in, response writer out), supplied
// manually exactly as the paper describes.
package securibench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flowdroid/internal/core"
	"flowdroid/internal/ir"
	"flowdroid/internal/taint"
)

// servletStubs is the J2EE API model the cases link against.
const servletStubs = `
class javax.servlet.http.HttpServlet {
  method init(): void;
}
class javax.servlet.http.HttpServletRequest {
  method getParameter(name: java.lang.String): java.lang.String;
  method getHeader(name: java.lang.String): java.lang.String;
  method getParameterValues(name: java.lang.String): java.lang.String[];
  method getSession(): javax.servlet.http.HttpSession;
  method getCookies(): javax.servlet.http.Cookie[];
}
class javax.servlet.http.HttpServletResponse {
  method getWriter(): java.io.PrintWriter;
}
class javax.servlet.http.HttpSession {
  method setAttribute(k: java.lang.String, v: java.lang.Object): void;
  method getAttribute(k: java.lang.String): java.lang.Object;
}
class javax.servlet.http.Cookie {
  method init(k: java.lang.String, v: java.lang.String): void;
  method getValue(): java.lang.String;
  method getName(): java.lang.String;
}
`

// rules is the manually supplied source/sink configuration (RQ4).
const rules = `
source <javax.servlet.http.HttpServletRequest: getParameter/1> -> return label web
source <javax.servlet.http.HttpServletRequest: getHeader/1> -> return label web
source <javax.servlet.http.HttpServletRequest: getParameterValues/1> -> return label web
source <javax.servlet.http.Cookie: getValue/0> -> return label cookie
sink <java.io.PrintWriter: println/1> -> arg0 label response
sink <java.io.PrintWriter: print/1> -> arg0 label response
`

// extraWrapperRules extends the default shortcut table with the servlet
// session API.
const extraWrapperRules = `
wrap <javax.servlet.http.HttpSession: setAttribute/2> arg1 -> base
wrap <javax.servlet.http.HttpSession: getAttribute/1> base -> return
`

// Case is one micro benchmark.
type Case struct {
	Name     string
	Category string
	// ExpectedLeaks is the ground truth.
	ExpectedLeaks int
	// FlowDroidFinds is the number of leaks our configuration reports,
	// per the Table 2 reproduction (TP = min, FP = surplus).
	FlowDroidFinds int
	// Source is the case's IR code (servlet classes).
	Source string
	Note   string
}

var registry []Case

func register(c Case) { registry = append(registry, c) }

// Cases returns all cases grouped by category in Table 2 order.
func Cases() []Case {
	order := map[string]int{}
	for i, c := range CategoryOrder {
		order[c] = i
	}
	out := append([]Case(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		return order[out[i].Category] < order[out[j].Category]
	})
	return out
}

// CategoryOrder lists the Table 2 categories in row order.
var CategoryOrder = []string{
	"Aliasing", "Arrays", "Basic", "Collections", "Datastructure",
	"Factory", "Inter", "Session", "StrongUpdates",
}

// Config is the engine configuration used for the suite: the paper's
// defaults plus the servlet session wrapper rules.
func Config() taint.Config {
	conf := taint.DefaultConfig()
	extra, err := taint.ParseWrapper(extraWrapperRules)
	if err != nil {
		panic("securibench: bad wrapper rules: " + err.Error())
	}
	conf.Wrapper = taint.MergeWrappers(conf.Wrapper, extra)
	return conf
}

// Program builds the case's linked program (servlet stubs plus the
// case source), exactly as Run analyzes it — the hook external
// verification tooling (cmd/irlint, the fixture-cleanliness tests)
// lints the suite through.
func Program(c Case) (*ir.Program, error) {
	prog, err := core.ParseJava(Source(c), c.Name+".ir")
	if err != nil {
		return nil, fmt.Errorf("securibench %s: %w", c.Name, err)
	}
	return prog, nil
}

// Source returns the case's complete IR source: the servlet stubs plus
// the case's classes.
func Source(c Case) string { return servletStubs + c.Source }

// Rules returns the suite's source/sink rule text.
func Rules() string { return rules }

// Run analyzes one case and returns the number of distinct leaks found.
// A panic anywhere in the pipeline is recovered into the case's error.
func Run(c Case) (found int, err error) {
	defer func() {
		if r := recover(); r != nil {
			found, err = 0, fmt.Errorf("securibench %s: panic: %v", c.Name, r)
		}
	}()
	prog, err := Program(c)
	if err != nil {
		return 0, err
	}
	var entries []*ir.Method
	for _, cls := range prog.Classes() {
		if m := cls.Method("doGet", 2); m != nil && !m.Abstract() {
			entries = append(entries, m)
		}
	}
	if len(entries) == 0 {
		return 0, fmt.Errorf("securibench %s: no doGet entry points", c.Name)
	}
	res, err := core.AnalyzeJava(context.Background(), prog, rules, Config(), entries...)
	if err != nil {
		return 0, err
	}
	return len(res.DistinctSourceSinkPairs()), nil
}

// CategoryResult aggregates Table 2's per-category row.
type CategoryResult struct {
	Category string
	TP       int
	Expected int
	FP       int
	// Errors counts cases in this category that failed to analyze; the
	// suite keeps going and scores them as finding nothing.
	Errors int
}

// RunSuite analyzes every case and aggregates per category.
func RunSuite() ([]CategoryResult, error) {
	agg := map[string]*CategoryResult{}
	for _, cat := range CategoryOrder {
		agg[cat] = &CategoryResult{Category: cat}
	}
	for _, c := range Cases() {
		found, err := Run(c)
		r := agg[c.Category]
		if err != nil {
			// Per-case isolation: a failing case scores zero findings
			// instead of aborting the suite.
			r.Errors++
			found = 0
		}
		r.Expected += c.ExpectedLeaks
		r.TP += min(found, c.ExpectedLeaks)
		r.FP += max(0, found-c.ExpectedLeaks)
	}
	out := make([]CategoryResult, 0, len(CategoryOrder))
	for _, cat := range CategoryOrder {
		out = append(out, *agg[cat])
	}
	return out, nil
}

// RenderTable prints Table 2.
func RenderTable(results []CategoryResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %8s %4s\n", "Test-case group", "TP", "FP")
	totTP, totExp, totFP := 0, 0, 0
	for _, r := range results {
		fmt.Fprintf(&sb, "%-18s %4d/%-4d %4d\n", r.Category, r.TP, r.Expected, r.FP)
		totTP += r.TP
		totExp += r.Expected
		totFP += r.FP
	}
	fmt.Fprintf(&sb, "%-18s %8s %4s\n", "Pred", "n/a", "n/a")
	fmt.Fprintf(&sb, "%-18s %8s %4s\n", "Reflection", "n/a", "n/a")
	fmt.Fprintf(&sb, "%-18s %8s %4s\n", "Sanitizer", "n/a", "n/a")
	fmt.Fprintf(&sb, "%-18s %4d/%-4d %4d\n", "Sum", totTP, totExp, totFP)
	errs := 0
	for _, r := range results {
		errs += r.Errors
	}
	if errs > 0 {
		fmt.Fprintf(&sb, "%d case(s) failed to analyze and scored zero findings\n", errs)
	}
	if totExp > 0 {
		fmt.Fprintf(&sb, "Recall %.0f%% with %d false positives\n",
			100*float64(totTP)/float64(totExp), totFP)
	}
	return sb.String()
}

// doGet wraps a body into a servlet class named sb.<name> with the
// standard prologue locals pw (the response writer).
func doGet(name, body string) string {
	return fmt.Sprintf(`
class sb.%s extends javax.servlet.http.HttpServlet {
  method doGet(req: javax.servlet.http.HttpServletRequest, resp: javax.servlet.http.HttpServletResponse): void {
    pw = resp.getWriter()
%s
  }
}
`, name, body)
}
