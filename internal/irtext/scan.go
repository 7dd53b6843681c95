package irtext

import (
	"strconv"

	"flowdroid/internal/ir"
)

// scanBody scans the method body whose "{" is at src[pos], on line line,
// and returns the offset just past its closing brace, the line that brace
// is on, and the facts the loader and the analyses read instead of
// parsing the body. It steps over the tokens exactly as lexer.next reads
// them (whitespace, comments, identifiers, integer literals and their
// range, string literals and their escapes, resource references, arrows,
// punctuation and operators) but builds none, and it balances the braces.
// It reports false where the lexer would fail or the source ends before
// the body does; the parser then parses the body to report the error in
// its own words. The scan allocates only to record resource names.
func scanBody(src string, pos, line int) (end, endLine int, facts ir.BodyFacts, ok bool) {
	depth := 1
	decls := stmtStart
	facts.Empty = true
	for pos++; pos < len(src); {
		c := src[pos]
		switch {
		case c == '\n':
			line++
			pos++
			continue
		case c == ' ' || c == '\t' || c == '\r':
			pos++
			continue
		case c == '/' && pos+1 < len(src) && src[pos+1] == '/':
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
			continue
		}
		start := pos
		ident := false
		switch {
		case isIdentStart(c):
			for pos < len(src) && isIdentPart(src[pos]) {
				pos++
			}
			ident = true
			switch src[start:pos] {
			case "forName", "getMethod", "getDeclaredMethod", "newInstance", "invoke", "loadClass":
				facts.Reflective = true
			}
		case isDigit(c) || c == '-' && pos+1 < len(src) && isDigit(src[pos+1]):
			pos++
			for pos < len(src) && isDigit(src[pos]) {
				pos++
			}
			if pos-start > 18 { // may not fit in an int64
				if _, err := strconv.ParseInt(src[start:pos], 10, 64); err != nil {
					return 0, 0, facts, false
				}
			}
		case c == '"':
			for pos++; pos < len(src) && src[pos] != '"'; pos++ {
				if src[pos] == '\\' && pos+1 < len(src) {
					pos++
				}
				if src[pos] == '\n' {
					return 0, 0, facts, false
				}
			}
			if pos >= len(src) {
				return 0, 0, facts, false
			}
			pos++
		case c == '@':
			pos++
			for pos < len(src) && (isIdentPart(src[pos]) || src[pos] == '/' || src[pos] == '.') {
				pos++
			}
			if pos == start+1 {
				return 0, 0, facts, false
			}
			facts.Resources = append(facts.Resources, src[start+1:pos])
		case c == '-' && pos+1 < len(src) && src[pos+1] == '>':
			pos += 2
		case c == '{':
			depth++
			pos++
		case c == '}':
			depth--
			pos++
			if depth == 0 {
				if decls != stmtStart && decls != afterType && decls != afterArray {
					facts.Empty = false // a declaration cut short: the parse fails
				}
				return pos, line, facts, true
			}
		case charClass[c]&punctOp != 0:
			pos++
		default:
			return 0, 0, facts, false
		}
		if facts.Empty {
			decls, facts.Empty = decls.step(ident, src[start:pos])
		}
	}
	return 0, 0, facts, false
}

// declState follows a body through its leading "local x: T" declarations,
// the only statements that parse to no IR statement. It is how the scan
// decides whether a body is empty.
type declState uint8

const (
	stmtStart  declState = iota // a statement begins
	afterLocal                  // "local": its name follows
	afterName                   // the name: ":" follows
	afterColon                  // ":" or a "." inside the type: a name part follows
	afterType                   // a type name part: ".", "[" or a new statement
	afterOpen                   // "[": "]" follows
	afterArray                  // "[]": another "[" or a new statement
)

// step consumes one token and reports the next state, and whether every
// token so far still belongs to a local declaration.
func (s declState) step(ident bool, tok string) (declState, bool) {
	switch s {
	case stmtStart:
		if ident && tok == "local" {
			return afterLocal, true
		}
	case afterLocal:
		if ident {
			return afterName, true
		}
	case afterName:
		if tok == ":" {
			return afterColon, true
		}
	case afterColon:
		if ident {
			return afterType, true
		}
	case afterType:
		switch tok {
		case ".":
			return afterColon, true
		case "[":
			return afterOpen, true
		}
		return stmtStart.step(ident, tok)
	case afterOpen:
		if tok == "]" {
			return afterArray, true
		}
	case afterArray:
		if tok == "[" {
			return afterOpen, true
		}
		return stmtStart.step(ident, tok)
	}
	return s, false
}
