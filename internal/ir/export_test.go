package ir

// LinkAll links every class of p, changed since the last Link or not: the
// from-scratch link the incremental Program.Link must agree with.
func LinkAll(p *Program) error { return p.link(p.Classes()) }
