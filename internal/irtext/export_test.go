package irtext

import (
	"fmt"
	"slices"
	"strings"

	"flowdroid/internal/ir"
)

// CheckScan runs the declaration pass over src and checks every body it
// scanned against an eager parse of the whole file from the body's "{":
// the eager parse fails exactly when the parse confined to the scanned
// span does, with the same message; otherwise it ends at the span's end,
// yields the same statements on the same lines, and agrees with the
// scan's facts, and the source says the body may mention every callee
// and field name its statements carry. It returns the number of bodies
// checked.
func CheckScan(src, filename string) (int, error) {
	p, _ := declare(ir.NewProgram(), src, filename)
	if p == nil {
		return 0, nil
	}
	for _, b := range p.bodies {
		twin := ir.NewMethod(b.m.Name, b.m.Return, b.m.Static)
		for _, prm := range b.m.Params {
			if _, err := twin.AddParam(prm.Name, prm.Type); err != nil {
				return 0, err
			}
		}
		eager, want, err := parseFrom(src, filename, b.span, b.m)
		if err != nil && eager.lex.pos >= b.span.End {
			// The lexer failed reading past the closing brace, on the
			// token the declaration pass reads next: it is that pass's
			// error. Compare the body with the file cut at its end.
			twin2 := ir.NewMethod(twin.Name, twin.Return, twin.Static)
			for _, prm := range twin.Params {
				twin2.AddParam(prm.Name, prm.Type)
			}
			eager, want, err = parseFrom(src[:b.span.End], filename, b.span, twin2)
		}
		got, gerr := p.src.ParseBody(twin, b.span)
		if fmt.Sprint(err) != fmt.Sprint(gerr) {
			return 0, fmt.Errorf("%s at line %d: eager parse error %v, span parse error %v", b.m.Name, b.span.Line, err, gerr)
		}
		if err != nil {
			continue
		}
		if eager.cur.kind != tokEOF && eager.cur.pos < b.span.End {
			return 0, fmt.Errorf("%s at line %d: eager parse ends at offset %d, inside the scanned span ending at %d", b.m.Name, b.span.Line, eager.cur.pos, b.span.End)
		}
		if w, g := render(want), render(got); w != g {
			return 0, fmt.Errorf("%s at line %d: span parse\n%s\nwant\n%s", b.m.Name, b.span.Line, g, w)
		}
		if b.facts.Empty != (len(want) == 0) {
			return 0, fmt.Errorf("%s at line %d: scan says empty=%t, parse found %d statements", b.m.Name, b.span.Line, b.facts.Empty, len(want))
		}
		var res []string
		reflective := false
		var unmentioned []string
		walkValues(want, func(v ir.Value) {
			var name string
			switch v := v.(type) {
			case *ir.Const:
				if v.Kind == ir.ResConst {
					res = append(res, v.Str)
				}
			case *ir.InvokeExpr:
				switch v.Ref.Name {
				case "forName", "getMethod", "getDeclaredMethod", "newInstance", "invoke", "loadClass":
					reflective = true
				}
				name = v.Ref.Name
			case *ir.FieldRef:
				name = v.Name
			case *ir.StaticFieldRef:
				name = v.Name
			}
			if name != "" && !p.src.MayMention(b.span, name) {
				unmentioned = append(unmentioned, name)
			}
		})
		if len(unmentioned) > 0 {
			return 0, fmt.Errorf("%s at line %d: the body names %v, which MayMention denies", b.m.Name, b.span.Line, unmentioned)
		}
		scanned := slices.Clone(b.facts.Resources)
		slices.Sort(res)
		slices.Sort(scanned)
		if !slices.Equal(slices.Compact(res), slices.Compact(scanned)) {
			return 0, fmt.Errorf("%s at line %d: scan found resources %v, parse %v", b.m.Name, b.span.Line, scanned, res)
		}
		if reflective && !b.facts.Reflective {
			return 0, fmt.Errorf("%s at line %d: parse found a reflective call the scan missed", b.m.Name, b.span.Line)
		}
	}
	return len(p.bodies), nil
}

// parseFrom parses the body at span as an eager parse of src does.
func parseFrom(src, filename string, span ir.Span, m *ir.Method) (*parser, []ir.Stmt, error) {
	p := &parser{lex: lexer{src: src, file: filename, pos: span.Start, line: span.Line}}
	if err := p.advance(); err != nil {
		return p, nil, err
	}
	if err := p.advance(); err != nil {
		return p, nil, err
	}
	body, err := p.parseBody(m)
	return p, body, err
}

func render(body []ir.Stmt) string {
	var sb strings.Builder
	for _, s := range body {
		fmt.Fprintf(&sb, "%d %s: %s\n", s.Line(), s.Label(), s)
	}
	return sb.String()
}

// walkValues calls fn on every value of body, operands included.
func walkValues(body []ir.Stmt, fn func(ir.Value)) {
	var walk func(v ir.Value)
	walk = func(v ir.Value) {
		if v == nil {
			return
		}
		fn(v)
		switch v := v.(type) {
		case *ir.ArrayRef:
			walk(v.Index)
		case *ir.NewArray:
			walk(v.Len)
		case *ir.Binop:
			walk(v.L)
			walk(v.R)
		case *ir.Cast:
			walk(v.X)
		case *ir.InvokeExpr:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	for _, s := range body {
		switch s := s.(type) {
		case *ir.AssignStmt:
			walk(s.LHS)
			walk(s.RHS)
		case *ir.InvokeStmt:
			walk(s.Call)
		case *ir.ReturnStmt:
			walk(s.Value)
		}
	}
}
