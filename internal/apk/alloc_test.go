package apk_test

import (
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
)

// TestLoadAllocs ratchets the allocations of loading a fixed generated
// app (seed 1, app 0) to its measured count plus 5%. The framework model
// is parsed once per process and the app's method bodies are only
// scanned, so a per-app framework re-parse, a body parsed at load, or a
// declaration pass that allocates more per class or method fails here.
func TestLoadAllocs(t *testing.T) {
	for _, tc := range []struct {
		profile  appgen.Profile
		measured float64
	}{
		{appgen.Play, 329},
		{appgen.Stress, 1975},
	} {
		app := appgen.GenerateCorpus(tc.profile, 1, 1)[0]
		load := func() {
			if _, err := apk.LoadFiles(app.Files); err != nil {
				t.Fatal(err)
			}
		}
		load() // the first load in the process also builds the framework base
		bound := 1.05 * tc.measured
		if got := testing.AllocsPerRun(5, load); got > bound {
			t.Errorf("%s: apk.LoadFiles allocates %.0f times, bound %.0f (measured %.0f + 5%%)",
				app.Name, got, bound, tc.measured)
		}
	}
}
