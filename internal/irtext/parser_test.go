package irtext

import (
	"strings"
	"testing"

	"flowdroid/internal/ir"
)

const sampleSrc = `
// A small program exercising every statement form.
class com.test.User {
  field name: java.lang.String
  field pwd: java.lang.String
  method init(n: java.lang.String, p: java.lang.String): void {
    this.name = n
    this.pwd = p
  }
  method getPwd(): java.lang.String {
    r = this.pwd
    return r
  }
}

class com.test.Main {
  static field cache: com.test.User

  static method main(): void {
    n = "alice"
    p = com.test.Source.secret()
    u = new com.test.User(n, p)
    com.test.Main.cache = u
    s = u.getPwd()
    msg = "pwd: " + s
    arr = newarray java.lang.String
    arr[0] = msg
    t = arr[1]
    if * goto skip
    com.test.Sink.leak(t)
  skip:
    o = (java.lang.Object) u
    return
  }
}

class com.test.Source {
  static method secret(): java.lang.String;
}

class com.test.Sink {
  static method leak(s: java.lang.String): void;
}
`

func TestParseSample(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	user := prog.Class("com.test.User")
	if user == nil {
		t.Fatal("class com.test.User not found")
	}
	if user.Super != "java.lang.Object" {
		t.Errorf("User super = %q, want java.lang.Object", user.Super)
	}
	if f := user.Field("pwd"); f == nil || !f.Type.Equal(ir.Ref("java.lang.String")) {
		t.Errorf("field pwd missing or mistyped: %v", f)
	}
	main := prog.Class("com.test.Main").Method("main", 0)
	if main == nil {
		t.Fatal("method main not found")
	}
	if !main.Static {
		t.Error("main should be static")
	}
	// Constructor sugar expands to alloc + special init call.
	var sawInit, sawStaticStore, sawArrayStore, sawCast bool
	for _, s := range main.Body() {
		if c := ir.CallOf(s); c != nil && c.Kind == ir.SpecialInvoke && c.Ref.Name == "init" {
			sawInit = true
			if c.Ref.Class != "com.test.User" {
				t.Errorf("init target class = %q", c.Ref.Class)
			}
		}
		if a, ok := s.(*ir.AssignStmt); ok {
			if _, ok := a.LHS.(*ir.StaticFieldRef); ok {
				sawStaticStore = true
			}
			if _, ok := a.LHS.(*ir.ArrayRef); ok {
				sawArrayStore = true
			}
			if _, ok := a.RHS.(*ir.Cast); ok {
				sawCast = true
			}
		}
	}
	if !sawInit {
		t.Error("constructor sugar did not expand to init call")
	}
	if !sawStaticStore {
		t.Error("static field store not parsed")
	}
	if !sawArrayStore {
		t.Error("array store not parsed")
	}
	if !sawCast {
		t.Error("cast not parsed")
	}
	// Stub methods have no body.
	if m := prog.Class("com.test.Source").Method("secret", 0); m == nil || !m.Abstract() {
		t.Error("stub method secret should be abstract")
	}
}

func TestTypeInference(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("com.test.Main").Method("main", 0)
	wantTypes := map[string]string{
		"u":   "com.test.User",
		"s":   "java.lang.String",
		"p":   "java.lang.String",
		"msg": "java.lang.String",
		"arr": "java.lang.String[]",
		"o":   "java.lang.Object",
	}
	for name, want := range wantTypes {
		l := main.LookupLocal(name)
		if l == nil {
			t.Errorf("local %s missing", name)
			continue
		}
		if got := l.Type.String(); got != want {
			t.Errorf("local %s: type = %s, want %s", name, got, want)
		}
	}
}

func TestFieldResolution(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	user := prog.Class("com.test.User")
	getPwd := user.Method("getPwd", 0)
	a := getPwd.Body()[0].(*ir.AssignStmt)
	fr, ok := a.RHS.(*ir.FieldRef)
	if !ok {
		t.Fatalf("first stmt of getPwd should load a field, got %T", a.RHS)
	}
	if fr.Field == nil || fr.Field != user.Field("pwd") {
		t.Errorf("field not resolved to declaration: %v", fr.Field)
	}
}

func TestBranchResolution(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("com.test.Main").Method("main", 0)
	var ifs *ir.IfStmt
	for _, s := range main.Body() {
		if i, ok := s.(*ir.IfStmt); ok {
			ifs = i
		}
	}
	if ifs == nil {
		t.Fatal("no if statement found")
	}
	target := main.Body()[ifs.TargetIndex]
	if target.Label() != "skip" {
		t.Errorf("if target label = %q, want skip", target.Label())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"duplicate class", `class A {} class A {}`, "duplicate class"},
		{"undefined label", `class A { method m(): void { goto L } }`, "undefined label"},
		{"chained fields", `class A { field f: A  method m(): void { local x: A  y = x.f.f } }`, "three-address"},
		{"bad condition", `class A { method m(): void { if x goto L } }`, "opaque"},
		{"unterminated string", `class A { method m(): void { x = "abc } }`, "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProgram(tc.src, "t.ir")
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestStringEscapes: the "\n" and "\t" escapes decode to a newline and a
// tab inside the constant, other escaped bytes stand for themselves, and
// only a raw newline byte leaves a literal unterminated.
func TestStringEscapes(t *testing.T) {
	prog, err := ParseProgram(`class A { method m(): void {
    x = "a\nb"
    y = "c\td\"e\\"
  } }`, "t.ir")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Class("A").Method("m", 0).Body()
	for i, want := range []string{"a\nb", "c\td\"e\\"} {
		c, ok := body[i].(*ir.AssignStmt).RHS.(*ir.Const)
		if !ok || c.Kind != ir.StringConst || c.Str != want {
			t.Errorf("statement %d: RHS = %v, want the string constant %q", i, body[i].(*ir.AssignStmt).RHS, want)
		}
	}
	for _, src := range []string{
		"class A { method m(): void { x = \"a\nb\" } }",
		"class A { method m(): void { x = \"a\\\nb\" } }",
	} {
		if _, err := ParseProgram(src, "t.ir"); err == nil || !strings.Contains(err.Error(), "unterminated string literal") {
			t.Errorf("%q: error %v, want an unterminated string literal", src, err)
		}
	}
}

func TestRoundTripPrint(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	// Printing and reparsing the printed text must succeed and preserve
	// the class inventory (a weak but useful round-trip property).
	var sb strings.Builder
	for _, c := range prog.Classes() {
		if c.Name == "java.lang.Object" {
			continue
		}
		sb.WriteString(ir.PrintClass(c))
	}
	prog2, err := ParseProgram(sb.String(), "printed.ir")
	if err != nil {
		t.Fatalf("reparse of printed program failed: %v\n%s", err, sb.String())
	}
	for _, c := range prog.Classes() {
		if prog2.Class(c.Name) == nil && c.Name != "java.lang.Object" {
			t.Errorf("class %s lost in round trip", c.Name)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	// Errors must carry file:line positions.
	src := "class A {\n  method m(): void {\n    if x goto L\n  }\n}"
	_, err := ParseProgram(src, "pos.ir")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "pos.ir:3") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestClassPositions(t *testing.T) {
	// The parser records where each class was declared so diagnostics can
	// be positioned.
	src := "class A {\n}\nclass B {\n  method m(): void { return }\n}"
	prog, err := ParseProgram(src, "pos.ir")
	if err != nil {
		t.Fatal(err)
	}
	for name, line := range map[string]int{"A": 1, "B": 3} {
		c := prog.Class(name)
		if c.File != "pos.ir" || c.Line != line {
			t.Errorf("class %s declared at %s:%d, want pos.ir:%d", name, c.File, c.Line, line)
		}
	}
}

func TestDeclaredFlag(t *testing.T) {
	// "local" declarations, parameters and the receiver are Declared;
	// locals created by first assignment are not.
	src := `class A { method m(p: int): void { local x: A  y = 1  return } }`
	prog, err := ParseProgram(src, "t.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("A").Method("m", 1)
	for name, want := range map[string]bool{"p": true, "x": true, "this": true, "y": false} {
		if l := m.LookupLocal(name); l == nil || l.Declared != want {
			t.Errorf("local %s: Declared = %v, want %v", name, l != nil && l.Declared, want)
		}
	}
}

func TestMoreParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"missing class keyword", `method m(): void {}`, "expected class"},
		{"bad member", `class A { banana }`, "field or method"},
		{"missing arity paren", `class A { method m: void {} }`, `expected "("`},
		{"call on missing receiver", `class A { method m(): void { foo() } }`, "receiver"},
		{"array base not local", `class A { method m(): void { a.b[0] = 1 } }`, "array base"},
		{"binop needs simple", `class A { field f: A  method m(): void { local x: A  y = x.f + x } }`, "temporary"},
		{"two labels", `class A { method m(): void { L1: L2: nop } }`, "consecutive labels"},
		{"ctor to field", `class B { method init(): void { return } } class A { field f: B  method m(): void { this.f = new B() } }`, "local"},
		{"duplicate method", `class A { method m(): void {} method m(): void {} }`, "duplicate method"},
		{"duplicate field", `class A { field f: A  field f: A }`, "duplicate field"},
		{"bad char", "class A { method m(): void { x = ~ } }", "unexpected character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProgram(tc.src, "t.ir")
			if err == nil {
				t.Fatalf("expected error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestTrailingLabelGetsNop(t *testing.T) {
	prog, err := ParseProgram(`class A { method m(): void { if * goto end  x = 1
  end:
} }`, "t.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("A").Method("m", 0)
	var found bool
	for _, s := range m.Body() {
		if s.Label() == "end" {
			found = true
		}
	}
	if !found {
		t.Error("trailing label lost")
	}
}

func TestInterfaceParsing(t *testing.T) {
	prog, err := ParseProgram(`
interface I {
  method f(x: int): int;
}
interface J extends I {
}
class A implements J {
  method f(x: int): int {
    return x
  }
}
`, "i.ir")
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Class("I").Interface || !prog.Class("J").Interface {
		t.Error("interfaces not marked")
	}
	if !prog.SubtypeOf("A", "I") {
		t.Error("A should implement I via J")
	}
	if m := prog.ResolveMethod("J", "f", 1); m == nil || !m.Abstract() {
		t.Error("interface method should resolve as abstract")
	}
}

// TestStringConstRoundTrip: a string constant holding every byte value
// prints as a literal the lexer reads back unchanged, so printing a parsed
// program and parsing the output again is a fixed point (irfmt's
// contract).
func TestStringConstRoundTrip(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	want := string(all)
	format := func(src string) string {
		t.Helper()
		prog, err := ParseProgram(src, "s.ir")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		as, ok := prog.Class("A").Method("m", 0).Body()[0].(*ir.AssignStmt)
		if !ok {
			t.Fatal("first statement is not an assignment")
		}
		if c, ok := as.RHS.(*ir.Const); !ok || c.Kind != ir.StringConst || c.Str != want {
			t.Fatalf("constant read back as %q, want every byte 0-255 in order", as.RHS)
		}
		return ir.PrintClass(prog.Class("A"))
	}
	src := "class A {\n  static method m(): void {\n    x = " + ir.StringOf(want).String() + "\n    return\n  }\n}\n"
	once := format(src)
	if twice := format(once); twice != once {
		t.Errorf("formatting is not a fixed point:\n%q\nvs\n%q", once, twice)
	}
}

// TestSpacedQualifiedNames: blanks, newlines or a comment between the
// parts of a qualified name do not change it, whether it names a class,
// a supertype, a field, parameter or return type, or a type in a body
// (allocation, cast, local declaration), and whether every dot or only
// some are spaced.
func TestSpacedQualifiedNames(t *testing.T) {
	const tmpl = `class a{1}b{2}C extends a{1}b{2}Base {
  field f: a{1}b{2}C
  method m(x: java{1}lang{2}String): a{1}b{2}C {
    local w: a{1}b{2}C[]
    y = new a{1}b{2}C
    z = (a{1}b{2}C) y
    a{1}b{2}Sink.leak(x)
    return z
  }
}
`
	render := func(sep1, sep2 string) string {
		src := strings.NewReplacer("{1}", sep1, "{2}", sep2).Replace(tmpl)
		prog, err := ParseProgram(src, "spaced.ir")
		if err != nil {
			t.Fatalf("separators %q, %q: %v\n%s", sep1, sep2, err, src)
		}
		c := prog.Class("a.b.C")
		if c == nil {
			t.Fatalf("separators %q, %q: class a.b.C not declared", sep1, sep2)
		}
		w := c.Method("m", 1).LookupLocal("w")
		return ir.PrintClass(c) + "local w: " + w.Type.String()
	}
	want := render(".", ".")
	if !strings.HasSuffix(want, "local w: a.b.C[]") {
		t.Fatalf("contiguous names print\n%s", want)
	}
	for _, sep := range []string{" . ", "\t.", ".\n", "\n.\n  ", " // note\n.", ". // note\n"} {
		for _, pair := range [][2]string{{sep, sep}, {".", sep}, {sep, "."}} {
			if got := render(pair[0], pair[1]); got != want {
				t.Errorf("separators %q, %q print\n%s\nwant\n%s", pair[0], pair[1], got, want)
			}
		}
	}
}
