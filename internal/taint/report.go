package taint

import (
	"encoding/json"
	"fmt"
)

// LeakReport is a serialization-friendly view of one leak, used by the
// CLI's JSON output and any downstream tooling.
type LeakReport struct {
	// SourceLabel/SinkLabel are the rule labels ("device-id", "sms").
	SourceLabel string `json:"sourceLabel"`
	SinkLabel   string `json:"sinkLabel"`
	// Source/Sink render the statements with their containing methods.
	Source       string `json:"source"`
	SourceMethod string `json:"sourceMethod"`
	Sink         string `json:"sink"`
	SinkMethod   string `json:"sinkMethod"`
	// AccessPath is the tainted access path observed at the sink.
	AccessPath string `json:"accessPath"`
	// Path is the reconstructed statement trace, source first. It is a
	// witness, not part of the leak's identity: the trace follows the
	// abstraction's predecessor chain, which records whichever derivation
	// was discovered first, so it may differ between runs that explore in
	// a different order (a query cone, a warm summary store). The key is always emitted (no omitempty) — the CLI's -json schema has
	// always carried it; CanonicalReport nulls it out but keeps the key.
	Path []string `json:"path"`
}

// Report converts the distinct leaks into serializable records.
func (r *Results) Report() []LeakReport {
	leaks := r.DistinctSourceSinkPairs()
	out := make([]LeakReport, 0, len(leaks))
	for _, l := range leaks {
		rep := LeakReport{
			SinkLabel:  l.SinkSpec.Label,
			Sink:       l.Sink.String(),
			SinkMethod: l.Sink.Method().String(),
		}
		if l.Abstraction != nil && l.Abstraction.AP != nil {
			rep.AccessPath = l.Abstraction.AP.String()
		}
		if s := l.Source(); s != nil {
			rep.SourceLabel = s.Source.Label
			if s.Stmt != nil {
				rep.Source = s.Stmt.String()
				rep.SourceMethod = s.Stmt.Method().String()
			}
		}
		for _, st := range l.Path() {
			rep.Path = append(rep.Path, fmt.Sprintf("%s @ %s", st, st.Method()))
		}
		out = append(out, rep)
	}
	return out
}

// CanonicalReport is Report with the path witnesses stripped: the
// exploration-order-independent identity of the leak set, which the
// equivalence relations (query ⊆ whole-program, warm == cold, each mode
// toggle) compare.
func (r *Results) CanonicalReport() []LeakReport {
	out := r.Report()
	for i := range out {
		out[i].Path = nil
	}
	return out
}

// CanonicalJSON renders the canonical report as indented JSON — the form
// the equivalence tests compare byte for byte.
func (r *Results) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(r.CanonicalReport(), "", "  ")
}
