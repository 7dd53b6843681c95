package droidbench

import (
	"context"
	"testing"

	"flowdroid/internal/core"
)

// TestReflectionEquivalence pins the reflection pass's gate. On and off
// are NOT expected to agree — resolving reflection is precisely what
// recovers the leaks — so the invariants are per mode:
//
//   - reflection on: every case reports its ExpectedLeaks;
//   - reflection off: the reflective leaks vanish (0 for every case, the
//     chain is invisible without the bridges) — i.e. what the
//     pre-reflection analyzer reported.
func TestReflectionEquivalence(t *testing.T) {
	cases := ReflectionCases()
	if len(cases) == 0 {
		t.Fatal("no reflection cases registered")
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, reflect := range []bool{true, false} {
				opts := core.DefaultOptions()
				opts.ResolveReflection = reflect
				res, err := core.AnalyzeFiles(context.Background(), c.Files, opts)
				if err != nil {
					t.Fatalf("reflection=%v: %v", reflect, err)
				}
				want := 0
				if reflect {
					want = c.ExpectedLeaks
				}
				if got := len(res.Taint.Leaks); got != want {
					t.Errorf("reflection=%v: %d leaks, want %d (%s)", reflect, got, want, c.Note)
				}
				if !reflect && res.Soundness != nil {
					t.Error("reflection off must not emit a soundness report")
				}
			}
			// The genuinely-dynamic case must land in the soundness report
			// rather than silently disappearing.
			if c.ExpectedLeaks == 0 {
				opts := core.DefaultOptions()
				res, err := core.AnalyzeFiles(context.Background(), c.Files, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Soundness == nil || len(res.Soundness.Unresolved) == 0 {
					t.Error("dynamic case resolved nothing yet reported no unresolved sites")
				}
			}
		})
	}
}

// TestReflectionCasesRegistered keeps the extension registry and the
// category filter in sync.
func TestReflectionCasesRegistered(t *testing.T) {
	got := len(ReflectionCases())
	if got != 4 {
		t.Fatalf("ReflectionCases() = %d cases, want 4", got)
	}
	total := 0
	for _, c := range ReflectionCases() {
		total += c.ExpectedLeaks
	}
	if total != 3 {
		t.Fatalf("reflection cases expect %d leaks in total, want 3", total)
	}
}
