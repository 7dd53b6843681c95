package taint

// Hooks for the external report-golden test (package taint_test), which
// needs the core pipeline and the benchmark suites and so cannot live in
// package taint.
var (
	CarrierFixtures = carrierFixtures
	AnalyzeFixture  = analyze
)
