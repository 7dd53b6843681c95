package taint

// Hooks for the external gate-equivalence test (package taint_test),
// which needs the core pipeline and the benchmark suites and so cannot
// live in package taint.
var (
	CarrierFixtures = carrierFixtures
	AnalyzeFixture  = analyze
)

// WithoutAliasGate returns c in the un-gated reference mode, in which
// every carrier receiver gen spawns its backward alias search.
func WithoutAliasGate(c Config) Config {
	c.noAliasGate = true
	return c
}
