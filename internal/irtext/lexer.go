// Package irtext implements the textual front end for the IR: a lexer and
// recursive-descent parser for ".ir" files, the stand-in for Dexpler's
// Dalvik-bytecode-to-Jimple conversion. App packages carry their code as
// .ir files next to AndroidManifest.xml, and the loader in internal/apk
// feeds them through this parser.
//
// The grammar is a compact Jimple dialect; see the package documentation of
// internal/ir for the statement algebra and testdata/ for examples:
//
//	class com.example.LeakageApp extends android.app.Activity {
//	    field user: com.example.User
//	    method onRestart(): void {
//	        et = this.findViewById(@id/pwdString)
//	        pwd = et.getText()
//	        this.user = pwd
//	    }
//	}
package irtext

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokString
	tokRes   // @id/name or @layout/name
	tokPunct // single punctuation: { } ( ) [ ] : , = ; .
	tokOp    // + - * / % binary operators (also '*' for opaque conditions)
	tokArrow // -> (used by config files sharing this lexer)
)

type token struct {
	kind tokenKind
	text string
	num  int64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer turns source text into tokens. It is shared by the IR parser and
// kept deliberately simple: one-pass, no backtracking, line tracking for
// error messages.
type lexer struct {
	src  string
	file string
	pos  int
	line int
}

func newLexer(src, file string) *lexer {
	return &lexer{src: src, file: file, line: 1}
}

func (l *lexer) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", l.file, line, fmt.Sprintf(format, args...))
}

func isIdentStart(r byte) bool {
	return r == '_' || r == '$' || unicode.IsLetter(rune(r))
}

func isIdentPart(r byte) bool {
	return isIdentStart(r) || r >= '0' && r <= '9'
}

// next returns the next token, skipping whitespace and // comments.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	start, line := l.pos, l.line
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line}, nil

	case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
			l.pos++
		}
		n, err := strconv.ParseInt(l.src[start:l.pos], 10, 64)
		if err != nil {
			return token{}, l.errf(line, "bad integer literal %q", l.src[start:l.pos])
		}
		return token{kind: tokInt, text: l.src[start:l.pos], num: n, line: line}, nil

	case c == '"':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			ch := l.src[l.pos]
			if ch == '\\' && l.pos+1 < len(l.src) {
				l.pos++
				switch l.src[l.pos] {
				case 'n':
					ch = '\n'
				case 't':
					ch = '\t'
				default:
					ch = l.src[l.pos]
				}
			}
			if ch == '\n' {
				return token{}, l.errf(line, "unterminated string literal")
			}
			sb.WriteByte(ch)
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf(line, "unterminated string literal")
		}
		l.pos++ // closing quote
		return token{kind: tokString, text: sb.String(), line: line}, nil

	case c == '@':
		l.pos++
		for l.pos < len(l.src) && (isIdentPart(l.src[l.pos]) || l.src[l.pos] == '/' || l.src[l.pos] == '.') {
			l.pos++
		}
		name := l.src[start+1 : l.pos]
		if name == "" {
			return token{}, l.errf(line, "empty resource reference after '@'")
		}
		return token{kind: tokRes, text: name, line: line}, nil

	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{kind: tokArrow, text: "->", line: line}, nil

	case strings.IndexByte("{}()[]:,=;.", c) >= 0:
		l.pos++
		return token{kind: tokPunct, text: l.src[start:l.pos], line: line}, nil

	case strings.IndexByte("+-*/%&|^", c) >= 0:
		l.pos++
		return token{kind: tokOp, text: l.src[start:l.pos], line: line}, nil
	}
	return token{}, l.errf(line, "unexpected character %q", string(c))
}
