package appgen

import (
	"bytes"
	"context"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/summarystore"
	"flowdroid/internal/taint"
)

// TestWarmUpdateReuse: a cold run of a play corpus populates a summary
// store; after MutateMethods changes 2% of each app's methods, the warm
// run against that store must reuse at least 90% of the analyzable
// methods and report byte-identically to a store-less run of the updated
// corpus. The mutation seeds touch live methods, so some stored
// summaries are invalidated rather than all reused.
func TestWarmUpdateReuse(t *testing.T) {
	apps := GenerateCorpus(Play, 8, 1)
	original := make([]map[string]string, len(apps))
	updated := make([]map[string]string, len(apps))
	for i, app := range apps {
		files, n := MutateMethods(app.Files, 0.02, int64(i)+2)
		if n == 0 {
			t.Fatalf("%s: mutation changed no methods", app.Name)
		}
		original[i], updated[i] = app.Files, files
	}

	// pass analyzes every file set against the store in dir (none when
	// empty), returning summed store statistics and concatenated
	// canonical reports.
	pass := func(sets []map[string]string, dir string) (taint.StoreStats, []byte) {
		var sum taint.StoreStats
		var reports bytes.Buffer
		store := summarystore.Open(dir)
		for i, files := range sets {
			opts := core.DefaultOptions()
			opts.SummaryStore = store
			res, err := core.AnalyzeFiles(context.Background(), files, opts)
			if err != nil {
				t.Fatalf("%s: %v", apps[i].Name, err)
			}
			if res.Status != core.Complete {
				t.Fatalf("%s: status %v, want complete", apps[i].Name, res.Status)
			}
			if ss := res.Taint.Stats.Store; ss != nil {
				sum.Hits += ss.Hits
				sum.Invalidated += ss.Invalidated
				sum.MethodsReused += ss.MethodsReused
				sum.MethodsExplored += ss.MethodsExplored
				sum.Persisted += ss.Persisted
			}
			reports.Write(canonicalJSON(t, res))
		}
		return sum, reports.Bytes()
	}

	dir := t.TempDir()
	cold, _ := pass(original, dir)
	if cold.Hits != 0 || cold.Persisted == 0 {
		t.Fatalf("cold run: %d hits, %d persisted; want 0 hits and some persisted",
			cold.Hits, cold.Persisted)
	}
	warm, warmRep := pass(updated, dir)
	if warm.Hits == 0 {
		t.Error("warm run hit no stored summaries")
	}
	if warm.Invalidated == 0 {
		t.Error("warm run invalidated nothing: the mutations all landed in dead code")
	}
	reuse := warm.ReuseRate()
	t.Logf("warm reuse %.3f (%d reused, %d explored, %d hits, %d invalidated)",
		reuse, warm.MethodsReused, warm.MethodsExplored, warm.Hits, warm.Invalidated)
	if reuse < 0.9 {
		t.Errorf("warm reuse %.3f below the 0.9 floor", reuse)
	}
	if _, want := pass(updated, ""); !bytes.Equal(warmRep, want) {
		t.Error("warm reports differ from a store-less run of the updated corpus")
	}
}
