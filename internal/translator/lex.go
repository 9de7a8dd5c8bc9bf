// Package translator implements the OP2 source-to-source compiler the
// paper redesigns (§II: "its Python source-to-source code translator is
// modified to automatically generate the parallel loops using HPX library
// calls"). It parses the C-style OP2 declaration API — op_decl_set,
// op_decl_map, op_decl_dat, op_decl_gbl, op_decl_const and op_par_loop
// with op_arg_dat/op_arg_gbl argument descriptors — and generates Go code
// against package core in either of two modes: the fork-join ("OpenMP")
// form with one synchronous call per loop, or the HPX dataflow form in
// which every generated loop function returns a future (Fig. 9).
package translator

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokSemi
	tokMinus
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of file"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokMinus:
		return "'-'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// lexer tokenizes OP2 declaration source. It understands // line comments
// and /* block comments */ so real snippets of airfoil.cpp lex cleanly.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return token{kind: tokEOF, line: l.line, col: l.col}, nil
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/':
			if err := l.skipComment(); err != nil {
				return token{}, err
			}
		default:
			return l.lexToken()
		}
	}
}

func (l *lexer) skipComment() error {
	line, col := l.line, l.col
	l.advance() // first '/'
	c, ok := l.peekByte()
	if !ok {
		return l.errorf(line, col, "stray '/'")
	}
	switch c {
	case '/':
		for {
			c, ok := l.peekByte()
			if !ok || c == '\n' {
				return nil
			}
			l.advance()
		}
	case '*':
		l.advance()
		for {
			c, ok := l.peekByte()
			if !ok {
				return l.errorf(line, col, "unterminated block comment")
			}
			if l.advance() == '*' && c == '*' {
				if n, ok := l.peekByte(); ok && n == '/' {
					l.advance()
					return nil
				}
			}
		}
	default:
		return l.errorf(line, col, "stray '/'")
	}
}

func (l *lexer) lexToken() (token, error) {
	line, col := l.line, l.col
	c := l.advance()
	switch {
	case c == '(':
		return token{tokLParen, "(", line, col}, nil
	case c == ')':
		return token{tokRParen, ")", line, col}, nil
	case c == ',':
		return token{tokComma, ",", line, col}, nil
	case c == ';':
		return token{tokSemi, ";", line, col}, nil
	case c == '-':
		return token{tokMinus, "-", line, col}, nil
	case c == '"':
		var b strings.Builder
		for {
			ch, ok := l.peekByte()
			if !ok || ch == '\n' {
				return token{}, l.errorf(line, col, "unterminated string literal")
			}
			l.advance()
			if ch == '"' {
				return token{tokString, b.String(), line, col}, nil
			}
			b.WriteByte(ch)
		}
	case isDigit(c):
		var b strings.Builder
		b.WriteByte(c)
		for {
			ch, ok := l.peekByte()
			if !ok || (!isDigit(ch) && ch != '.') {
				break
			}
			b.WriteByte(ch)
			l.advance()
		}
		return token{tokNumber, b.String(), line, col}, nil
	case isIdentStart(c):
		var b strings.Builder
		b.WriteByte(c)
		for {
			ch, ok := l.peekByte()
			if !ok || !isIdentPart(ch) {
				break
			}
			b.WriteByte(ch)
			l.advance()
		}
		return token{tokIdent, b.String(), line, col}, nil
	default:
		return token{}, l.errorf(line, col, "unexpected character %q", rune(c))
	}
}

// Identifiers are C identifiers: ASCII only. The lexer works on bytes,
// so a Unicode letter test would accept a lone byte of a multi-byte
// UTF-8 sequence and carry it into the generated Go names.
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

// lexAll tokenizes the whole input, for the parser's lookahead buffer.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
