package core

import "flowdroid/internal/sourcesink"

// Query restricts an analysis to a subset of the configured sinks: the
// demand-driven mode of the pipeline. The zero value (no selectors) is
// the whole-program analysis and changes nothing.
//
// Query mode is contractually equivalent to filtering: for any query Q,
// the canonical leak report equals the whole-program report filtered to
// the leaks whose matched sink rule Q selects. The pipeline exploits the
// query for speed — components that cannot reach a queried sink are not
// modeled in the dummy main, and the taint solver does not explore call
// trees irrelevant to the query — never for different answers.
type Query struct {
	// Sinks selects sink rules by label ("sms"), by "Class.method", by
	// "Class.method/arity", or by "<Class: method/arity>" signature (see
	// sourcesink.Sink.MatchesSelector). Empty means all sinks.
	Sinks []string
}

// IsAll reports whether the query is the trivial all-sinks query.
func (q Query) IsAll() bool { return len(q.Sinks) == 0 }

// Fingerprint returns a short stable fingerprint of the query for
// summary-store and circuit-breaker keying: order- and duplicate-insensitive,
// empty for the all-sinks query.
func (q Query) Fingerprint() string { return sourcesink.QueryFingerprint(q.Sinks) }
