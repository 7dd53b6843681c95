package core_test

import (
	"context"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
)

// TestAnalyzeAllocs ratchets the allocations of loading and analyzing a
// fixed generated app (seed 1, app 0) to the count measured under -race
// (whose runtime allocates more than a plain build, and which CI runs)
// plus 5%. The cases cover the three paths that build the class model:
// Play (the scene over the framework base, and the dummy main's Refresh),
// Reflection (a second Refresh after the constprop bridges, and constprop
// reading every class's methods) and Malware under a sink query (the
// cone). A per-app rebuild of the framework's hierarchy, a Refresh that
// re-indexes the whole program, an uncached method list, or a constprop
// or cone walk parsing bodies its answers do not need fails here.
func TestAnalyzeAllocs(t *testing.T) {
	sms := core.DefaultOptions()
	sms.Query = core.Query{Sinks: []string{"sms"}}
	for _, tc := range []struct {
		profile  appgen.Profile
		opts     core.Options
		measured float64
	}{
		{appgen.Play, core.DefaultOptions(), 1675},
		{appgen.Reflection, core.DefaultOptions(), 2645},
		{appgen.Malware, sms, 1469},
	} {
		app := appgen.GenerateCorpus(tc.profile, 1, 1)[0]
		analyze := func() {
			a, err := apk.LoadFiles(app.Files)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.AnalyzeApp(context.Background(), a, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != core.Complete {
				t.Fatalf("%s: status %v", app.Name, res.Status)
			}
		}
		analyze() // the first run in the process also builds the framework base
		bound := 1.05 * tc.measured
		if got := testing.AllocsPerRun(5, analyze); got > bound {
			t.Errorf("%s: loading and analyzing allocates %.0f times, bound %.0f (measured %.0f + 5%%)",
				app.Name, got, bound, tc.measured)
		}
	}
}
