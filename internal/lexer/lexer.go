// Package lexer tokenizes NMSL specification source.
//
// Tokens are separated by white space or special character sequences like
// "::=" or ";" (paper section 4.1.1). Comments run from "--" to end of
// line, following the ASN.1 convention used in the paper's examples
// (Figure 4.4: "-- entire MIB subtree").
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"nmsl/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans an NMSL source buffer into tokens.
type Lexer struct {
	src  string
	off  int // current byte offset
	line int
	col  int
	errs []*Error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Offset: l.off, Line: l.line, Column: l.col}
}

// peek returns the current rune without consuming it, or -1 at EOF.
// ASCII bytes, nearly all of any specification, skip the UTF-8 decoder.
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

// peekAt returns the rune at byte offset delta from the current position.
func (l *Lexer) peekAt(delta int) rune {
	if l.off+delta >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+delta:])
	return r
}

// next consumes and returns the current rune.
func (l *Lexer) next() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, w := rune(l.src[l.off]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(l.src[l.off:])
	}
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == -1:
			return
		case unicode.IsSpace(r):
			l.next()
		case r == '-' && l.peekAt(1) == '-':
			// comment to end of line
			for {
				r := l.next()
				if r == -1 || r == '\n' {
					break
				}
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || r == '_'
	}
	return unicode.IsLetter(r)
}

// isIdentPart accepts letters, digits, '_' and '-' inside identifiers:
// NMSL names such as "wisc-research" and "ethernet-csmacd" (Figure 4.6)
// contain hyphens, matching ASN.1 identifier syntax.
func isIdentPart(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '_' || r == '-'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isDigit accepts any Unicode decimal digit, as the lexer always has.
func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

// Next scans and returns the next token. At end of input it returns an EOF
// token; calling Next after EOF keeps returning EOF.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.pos()
	r := l.peek()
	switch {
	case r == -1:
		return token.Token{Kind: token.EOF, Pos: start}
	case isIdentStart(r):
		return l.scanIdent(start)
	case isDigit(r):
		return l.scanNumber(start)
	case r == '"':
		return l.scanString(start)
	}
	l.next()
	switch r {
	case ';':
		return token.Token{Kind: token.SEMI, Text: ";", Pos: start}
	case '.':
		return token.Token{Kind: token.PERIOD, Text: ".", Pos: start}
	case ',':
		return token.Token{Kind: token.COMMA, Text: ",", Pos: start}
	case '(':
		return token.Token{Kind: token.LPAREN, Text: "(", Pos: start}
	case ')':
		return token.Token{Kind: token.RPAREN, Text: ")", Pos: start}
	case '{':
		return token.Token{Kind: token.LBRACE, Text: "{", Pos: start}
	case '}':
		return token.Token{Kind: token.RBRACE, Text: "}", Pos: start}
	case '*':
		return token.Token{Kind: token.STAR, Text: "*", Pos: start}
	case ':':
		if l.peek() == ':' && l.peekAt(1) == '=' {
			l.next()
			l.next()
			return token.Token{Kind: token.DEFINE, Text: "::=", Pos: start}
		}
		if l.peek() == '=' {
			l.next()
			return token.Token{Kind: token.ASSIGN, Text: ":=", Pos: start}
		}
		return token.Token{Kind: token.COLON, Text: ":", Pos: start}
	case '<':
		if l.peek() == '=' {
			l.next()
			return token.Token{Kind: token.LE, Text: "<=", Pos: start}
		}
		return token.Token{Kind: token.LT, Text: "<", Pos: start}
	case '>':
		if l.peek() == '=' {
			l.next()
			return token.Token{Kind: token.GE, Text: ">=", Pos: start}
		}
		return token.Token{Kind: token.GT, Text: ">", Pos: start}
	}
	l.errorf(start, "illegal character %q", r)
	return token.Token{Kind: token.ILLEGAL, Text: string(r), Pos: start}
}

// Every token's text is a slice of the source buffer, or a string
// constant for punctuation; only an illegal character and a string
// literal holding invalid UTF-8 are copied. Token text shares the
// input's backing array, which keeps lexing allocation-free (this
// dominates compile time on 100k-line specifications).

func (l *Lexer) scanIdent(start token.Pos) token.Token {
	for isIdentPart(l.peek()) {
		l.next()
	}
	return token.Token{Kind: token.IDENT, Text: l.src[start.Offset:l.off], Pos: start}
}

func (l *Lexer) scanNumber(start token.Pos) token.Token {
	for isDigit(l.peek()) {
		l.next()
	}
	// A '.' following a number is only part of the number if a digit
	// follows; otherwise it is the declaration terminator PERIOD
	// ("speed 10000000 bps;" vs "end type ipAddrTable.").
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		l.next()
		for isDigit(l.peek()) {
			l.next()
		}
		// allow dotted version numbers like 4.0.1 to lex as a single
		// FLOAT-class token with full text ("opsys SunOS version 4.0.1").
		for l.peek() == '.' && isDigit(l.peekAt(1)) {
			l.next()
			for isDigit(l.peek()) {
				l.next()
			}
		}
		return token.Token{Kind: token.FLOAT, Text: l.src[start.Offset:l.off], Pos: start}
	}
	return token.Token{Kind: token.INT, Text: l.src[start.Offset:l.off], Pos: start}
}

// scanString slices the literal's text out of the source: NMSL strings
// have no escapes. Bytes that are not valid UTF-8 read as U+FFFD, as the
// rune-at-a-time scanner always rendered them.
func (l *Lexer) scanString(start token.Pos) token.Token {
	l.next() // opening quote
	body := l.off
	for {
		end := l.off
		switch l.next() {
		case -1, '\n':
			l.errorf(start, "unterminated string literal")
			return token.Token{Kind: token.ILLEGAL, Text: l.text(body, end), Pos: start}
		case '"':
			return token.Token{Kind: token.STRING, Text: l.text(body, end), Pos: start}
		}
	}
}

// text returns src[from:to], with each byte that is not valid UTF-8
// replaced by U+FFFD.
func (l *Lexer) text(from, to int) string {
	s := l.src[from:to]
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(r)
	}
	return b.String()
}
