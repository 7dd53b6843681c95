package constprop

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
)

// WithStepBound returns ctx carrying a worklist step bound that replaces
// the derived one, so tests can force the non-convergence panic, also
// through the whole pipeline.
func WithStepBound(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, stepBoundKey{}, n)
}

// Render prints the soundness report and every classified site as
// (method, statement index, API, targets, ctors), independently of
// statement and method identity.
func Render(res *Result) string {
	js, err := json.Marshal(res.Report)
	if err != nil {
		panic(err) // a SoundnessReport always marshals
	}
	var b strings.Builder
	fmt.Fprintf(&b, "report %s\n", js)
	for _, s := range res.Sites {
		targets := make([]string, len(s.Targets))
		for i, m := range s.Targets {
			targets[i] = m.String()
		}
		fmt.Fprintf(&b, "site %s #%d %s targets=%s ctors=%v\n", s.In, s.Stmt.Index(), s.API, targets, s.Ctors)
	}
	return b.String()
}
