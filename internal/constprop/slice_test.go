package constprop

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flowdroid/internal/scene"
)

// sliceChain is a reflective chain spread over two methods: the class
// name is a constant returned from a helper, so the fixpoint needs both.
const sliceChain = `
class app.Target {
  method init(): void { return }
  method leak(s: java.lang.String): void { return }
}
class app.Config {
  static method target(): java.lang.String {
    n = "app.Target"
    return n
  }
}
class app.Main {
  static method run(secret: java.lang.String): void {
    cn = app.Config.target()
    clz = java.lang.Class.forName(cn)
    mth = clz.getMethod("leak")
    tgt = new app.Target()
    o = mth.invoke(tgt, secret)
    return
  }
}
`

// withHelpers appends k reflection-free helper classes, called from one
// another but never from (and never calling into) the reflective chain.
func withHelpers(k int) string {
	var b strings.Builder
	b.WriteString(sliceChain)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, `
class app.Helper%d {
  static method tag(x: java.lang.String): java.lang.String {
    y = x + "-%d"
    return y
  }
  static method drive(): void {
    s = app.Helper%d.tag("h")
    t = s.concat("!")
    return
  }
}
`, i, i, i)
	}
	return b.String()
}

// TestSliceIgnoresUnrelatedMethods: helpers that cannot reach a
// reflective site change neither the result nor the fixpoint's work.
func TestSliceIgnoresUnrelatedMethods(t *testing.T) {
	var baseOut string
	var baseSteps, baseSlice int
	for _, k := range []int{0, 4, 32} {
		prog := parse(t, withHelpers(k))
		res, a := analyze(context.Background(), scene.New(prog))
		if res.Truncated || a == nil {
			t.Fatalf("k=%d: truncated=%v, analysis=%v", k, res.Truncated, a)
		}
		if got := len(a.methods); got != 4+2*k {
			t.Fatalf("k=%d: %d analyzed methods, want %d", k, got, 4+2*k)
		}
		out := Render(res)
		if k == 0 {
			baseOut, baseSteps, baseSlice = out, a.steps, len(a.slice)
			if res.Report.ResolvedSites != 3 || len(res.Report.Unresolved) != 0 {
				t.Fatalf("chain not resolved:\n%s", out)
			}
			if baseSlice != 2 {
				t.Fatalf("slice has %d methods, want 2 (run and Config.target)", baseSlice)
			}
			continue
		}
		if out != baseOut {
			t.Errorf("k=%d: result differs from k=0:\n%s\nvs\n%s", k, out, baseOut)
		}
		if a.steps != baseSteps || len(a.slice) != baseSlice {
			t.Errorf("k=%d: %d method analyses over a slice of %d, want %d over %d (as with no helpers)",
				k, a.steps, len(a.slice), baseSteps, baseSlice)
		}
	}
}

// TestStepBoundExhaustionPanics: a worklist that runs out of its step
// bound has not converged; Analyze must fail loudly, naming the method,
// rather than classify sites on unconverged facts.
func TestStepBoundExhaustionPanics(t *testing.T) {
	prog := parse(t, sliceChain)
	ctx := WithStepBound(context.Background(), 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Analyze returned normally with a step bound of 1")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "did not converge") || !strings.Contains(msg, "app.") {
			t.Fatalf("panic %q does not name the non-converged method", msg)
		}
	}()
	Analyze(ctx, scene.New(prog))
}
