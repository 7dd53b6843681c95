package taint

import (
	"bytes"
	"testing"
)

// carrierFixtures are the string-carrier test programs. Every fixture is
// also a report-identity case: across worker counts (TestCarrierEquivalence)
// and against the un-gated reference mode (TestGateEquivalence).
var carrierFixtures = []struct {
	Name string
	Src  string
}{
	{"append", carrierAppend},
	{"append-result", carrierAppendResult},
	{"insert", carrierInsert},
	{"insert-index", carrierInsertIndex},
	{"concat", carrierConcat},
	{"valueOf", carrierValueOf},
	{"init", carrierInit},
	{"transform", carrierTransform},
	{"alias-captured", carrierAliasCaptured},
	{"result-captured", carrierResultCaptured},
	{"param-base", carrierParamBase},
	{"recursive", carrierRecursive},
}

// append moves taint from the value argument into the receiver; toString
// snapshots the receiver into the result.
const carrierAppend = `
class Main {
  static method main(): void {
    s = Src.secret()
    sb = new java.lang.StringBuilder()
    sb.append("hello")
    sb.append(s)
    msg = sb.toString()
    Snk.leak(msg)                  // append leak
    pub = new java.lang.StringBuilder()
    pub.append("benign")
    ok = pub.toString()
    Snk.leak(ok)                   // clean builder
    return
  }
}
`

// append returns its receiver: taint must reach the captured result local
// directly, without any alias reasoning.
const carrierAppendResult = `
class Main {
  static method main(): void {
    s = Src.secret()
    sb = new java.lang.StringBuilder()
    r = sb.append(s)
    msg = r.toString()
    Snk.leak(msg)                  // result-alias leak
    return
  }
}
`

// insert's value argument (arg1) taints the receiver.
const carrierInsert = `
class Main {
  static method main(): void {
    s = Src.secret()
    sb = new java.lang.StringBuilder()
    sb.append("x")
    sb.insert(0, s)
    msg = sb.toString()
    Snk.leak(msg)                  // insert leak
    return
  }
}
`

// insert's index argument (arg0) is taint-neutral: a tainted index must
// not taint the builder.
const carrierInsertIndex = `
class Main {
  static method main(): void {
    s = Src.secret()
    i = java.lang.Integer.parseInt(s)
    sb = new java.lang.StringBuilder()
    sb.append("x")
    sb.insert(i, "clean")
    msg = sb.toString()
    Snk.leak(msg)                  // index only: clean
    return
  }
}
`

const carrierConcat = `
class Main {
  static method main(): void {
    s = Src.secret()
    pub = "public"
    a = pub.concat(s)
    Snk.leak(a)                    // concat arg leak
    b = s.concat(pub)
    Snk.leak(b)                    // concat base leak
    return
  }
}
`

const carrierValueOf = `
class Main {
  static method main(): void {
    s = Src.secret()
    v = java.lang.String.valueOf(s)
    Snk.leak(v)                    // valueOf leak
    return
  }
}
`

// Constructor sugar: t = new String(s) expands to alloc + init(s), and the
// init/1 rule carries arg0 into the fresh receiver.
const carrierInit = `
class Main {
  static method main(): void {
    s = Src.secret()
    t = new java.lang.String(s)
    Snk.leak(t)                    // init leak
    return
  }
}
`

const carrierTransform = `
class Main {
  static method main(): void {
    s = Src.secret()
    a = s.substring(0, 3)
    Snk.leak(a)                    // substring leak
    sb = new java.lang.StringBuffer()
    sb.append(s)
    sb.reverse()
    m = sb.toString()
    Snk.leak(m)                    // reverse leak
    return
  }
}
`

// An explicit alias of the builder taken before the tainted append: the
// receiver alias search is load-bearing and the gate must stay open.
const carrierAliasCaptured = `
class Main {
  static method main(): void {
    s = Src.secret()
    sb = new java.lang.StringBuilder()
    local alias: java.lang.StringBuilder
    alias = sb
    sb.append(s)
    msg = alias.toString()
    Snk.leak(msg)                  // alias leak
    return
  }
}
`

// An upstream append whose result was captured: r aliases sb, so the gate
// must stay open at the later tainted append.
const carrierResultCaptured = `
class Main {
  static method main(): void {
    s = Src.secret()
    sb = new java.lang.StringBuilder()
    r = sb.append("seed")
    sb.append(s)
    msg = sb.toString()
    Snk.leak(msg)                  // direct leak
    return
  }
}
`

// The builder is a parameter: its aliases live in the caller, so the gate
// must stay open inside the callee.
const carrierParamBase = `
class Main {
  static method pump(sb: java.lang.StringBuilder): void {
    s = Src.secret()
    sb.append(s)
    return
  }
  static method main(): void {
    sb = new java.lang.StringBuilder()
    Main.pump(sb)
    msg = sb.toString()
    Snk.leak(msg)                  // param leak
    return
  }
}
`

// The carrier sits in a method that can re-enter itself: facts seeded by
// the outer activation can activate at the recursive call site, so the
// gate's region proof does not apply.
const carrierRecursive = `
class Main {
  static method loopy(s: java.lang.String): java.lang.String {
    sb = new java.lang.StringBuilder()
    sb.append(s)
    msg = sb.toString()
    if * goto done
    r = Main.loopy(msg)
    return r
  done:
    return msg
  }
  static method main(): void {
    s = Src.secret()
    out = Main.loopy(s)
    Snk.leak(out)                  // recursive leak
    return
  }
}
`

// expectLeak asserts the fixture leaks (or stays clean) at the line of the
// given marker comment, under the given config.
func expectLeak(t *testing.T, src, marker string, want bool, conf Config) {
	t.Helper()
	r := analyze(t, src, conf)
	line := lineOfCall(src, marker, 1)
	if line < 0 {
		t.Fatalf("marker %q not found", marker)
	}
	if got := hasLeakAtLine(r, line); got != want {
		t.Errorf("leak at %q (line %d) = %v, want %v (leaks: %v)", marker, line, got, want, leakLines(r))
	}
}

// TestCarrierTransfers pins the per-operation transfer functions.
func TestCarrierTransfers(t *testing.T) {
	checks := []struct {
		src, marker string
		want        bool
	}{
		{carrierAppend, "append leak", true},
		{carrierAppend, "clean builder", false},
		{carrierAppendResult, "result-alias leak", true},
		{carrierInsert, "insert leak", true},
		{carrierInsertIndex, "index only: clean", false},
		{carrierConcat, "concat arg leak", true},
		{carrierConcat, "concat base leak", true},
		{carrierValueOf, "valueOf leak", true},
		{carrierInit, "init leak", true},
		{carrierTransform, "substring leak", true},
		{carrierTransform, "reverse leak", true},
		{carrierAliasCaptured, "alias leak", true},
		{carrierResultCaptured, "direct leak", true},
		{carrierParamBase, "param leak", true},
		{carrierRecursive, "recursive leak", true},
	}
	for _, c := range checks {
		expectLeak(t, c.src, c.marker, c.want, DefaultConfig())
	}
}

// TestCarrierGateFires: on the canonical fresh-builder pattern the receiver
// alias searches are provably redundant and must be gated.
func TestCarrierGateFires(t *testing.T) {
	r := analyze(t, carrierAppend, DefaultConfig())
	if r.Stats.GatedAliasQueries == 0 {
		t.Error("expected gated alias queries on the fresh-builder fixture, got 0")
	}
	r = analyze(t, carrierAppend, WithoutAliasGate(DefaultConfig()))
	if r.Stats.GatedAliasQueries != 0 {
		t.Errorf("reference mode: GatedAliasQueries = %d, want 0", r.Stats.GatedAliasQueries)
	}
}

// TestCarrierGateStaysOpen: each fixture that makes the receiver alias
// search load-bearing (or unprovable) must record zero gated queries — the
// gate may never fire where skipping could lose facts.
func TestCarrierGateStaysOpen(t *testing.T) {
	for _, f := range []struct{ name, src string }{
		{"alias-captured", carrierAliasCaptured},
		{"result-captured", carrierResultCaptured},
		{"param-base", carrierParamBase},
		{"recursive", carrierRecursive},
	} {
		r := analyze(t, f.src, DefaultConfig())
		if n := r.Stats.GatedAliasQueries; n != 0 {
			t.Errorf("%s: GatedAliasQueries = %d, want 0", f.name, n)
		}
	}
}

// TestCarrierEquivalence: every carrier fixture must produce a
// byte-identical canonical report at worker counts 1, 2 and 8.
func TestCarrierEquivalence(t *testing.T) {
	for _, f := range carrierFixtures {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			var base []byte
			for _, w := range []int{1, 2, 8} {
				conf := DefaultConfig()
				conf.Workers = w
				js, err := analyze(t, f.Src, conf).CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = js
					continue
				}
				if !bytes.Equal(base, js) {
					t.Errorf("workers=%d report differs:\n%s\nvs\n%s", w, base, js)
				}
			}
		})
	}
}
