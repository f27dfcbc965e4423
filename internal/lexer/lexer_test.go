package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"nmsl/internal/token"
)

// lexAll scans src to its EOF token, inclusive.
func lexAll(src string) []token.Token {
	l := New(src)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func kinds(toks []token.Token) []token.Kind {
	ks := make([]token.Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func TestScanDefine(t *testing.T) {
	toks := lexAll("type ipAddrTable ::=")
	want := []token.Kind{token.IDENT, token.IDENT, token.DEFINE, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", toks, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanOperators(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"<", token.LT},
		{"<=", token.LE},
		{">", token.GT},
		{">=", token.GE},
		{":=", token.ASSIGN},
		{"::=", token.DEFINE},
		{":", token.COLON},
		{";", token.SEMI},
		{".", token.PERIOD},
		{",", token.COMMA},
		{"(", token.LPAREN},
		{")", token.RPAREN},
		{"{", token.LBRACE},
		{"}", token.RBRACE},
		{"*", token.STAR},
	}
	for _, c := range cases {
		tok := New(c.src).Next()
		if tok.Kind != c.kind {
			t.Errorf("%q: got %v, want %v", c.src, tok.Kind, c.kind)
		}
	}
}

func TestScanString(t *testing.T) {
	tok := New(`"romano.cs.wisc.edu"`).Next()
	if tok.Kind != token.STRING || tok.Text != "romano.cs.wisc.edu" {
		t.Fatalf("got %v", tok)
	}
}

func TestUnterminatedString(t *testing.T) {
	l := New("\"abc\ndef")
	tok := l.Next()
	if tok.Kind != token.ILLEGAL {
		t.Fatalf("got %v, want ILLEGAL", tok)
	}
	if len(l.Errors()) != 1 {
		t.Fatalf("want 1 error, got %v", l.Errors())
	}
}

func TestComments(t *testing.T) {
	src := "supports mgmt -- entire MIB subtree\n;"
	toks := lexAll(src)
	want := []token.Kind{token.IDENT, token.IDENT, token.SEMI, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestHyphenatedIdent(t *testing.T) {
	toks := lexAll("ethernet-csmacd wisc-research")
	if toks[0].Text != "ethernet-csmacd" || toks[1].Text != "wisc-research" {
		t.Fatalf("got %v", toks)
	}
}

// A "--" that begins a comment must not be confused with a hyphenated
// identifier continuation.
func TestCommentAfterIdent(t *testing.T) {
	toks := lexAll("mib --comment\nnext")
	if len(toks) != 3 || toks[0].Text != "mib" || toks[1].Text != "next" {
		t.Fatalf("got %v", toks)
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		text string
	}{
		{"10000000", token.INT, "10000000"},
		{"5", token.INT, "5"},
		{"4.0.1", token.FLOAT, "4.0.1"},
		{"2.5", token.FLOAT, "2.5"},
	}
	for _, c := range cases {
		tok := New(c.src).Next()
		if tok.Kind != c.kind || tok.Text != c.text {
			t.Errorf("%q: got %v", c.src, tok)
		}
	}
}

// "end type ipAddrTable." — the trailing period terminates the declaration
// and must not attach to the identifier.
func TestPeriodAfterIdent(t *testing.T) {
	toks := lexAll("end type ipAddrTable.")
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT, token.PERIOD, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// A number followed by a declaration-terminating period stays an INT.
func TestIntThenPeriod(t *testing.T) {
	toks := lexAll("5.")
	if toks[0].Kind != token.INT || toks[1].Kind != token.PERIOD {
		t.Fatalf("got %v", toks)
	}
}

func TestDottedNameLexesAsIdentPeriodIdent(t *testing.T) {
	toks := lexAll("mgmt.mib.ip")
	want := []token.Kind{token.IDENT, token.PERIOD, token.IDENT, token.PERIOD, token.IDENT, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", toks)
		}
	}
}

func TestPositions(t *testing.T) {
	l := New("a\n  bb")
	a := l.Next()
	b := l.Next()
	if a.Pos.Line != 1 || a.Pos.Column != 1 {
		t.Errorf("a at %v", a.Pos)
	}
	if b.Pos.Line != 2 || b.Pos.Column != 3 {
		t.Errorf("bb at %v", b.Pos)
	}
}

func TestIllegalChar(t *testing.T) {
	l := New("@")
	tok := l.Next()
	if tok.Kind != token.ILLEGAL {
		t.Fatalf("got %v", tok)
	}
	if len(l.Errors()) == 0 {
		t.Fatal("expected a lexical error")
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("")
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != token.EOF {
			t.Fatalf("call %d: got %v", i, tok)
		}
	}
}

// Property: lexing never panics and always terminates with EOF, for
// arbitrary input strings.
func TestLexerTotal(t *testing.T) {
	f := func(src string) bool {
		toks := lexAll(src)
		return len(toks) >= 1 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the concatenated text of IDENT/INT/FLOAT tokens from a
// whitespace-separated word source round-trips.
func TestLexerWordsRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			ok := w != ""
			for i, r := range w {
				if i == 0 && !(r >= 'a' && r <= 'z') {
					ok = false
					break
				}
				if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
					ok = false
					break
				}
			}
			if ok {
				clean = append(clean, w)
			}
		}
		src := strings.Join(clean, " ")
		toks := lexAll(src)
		var got []string
		for _, tok := range toks {
			if tok.Kind == token.IDENT {
				got = append(got, tok.Text)
			}
		}
		if len(got) != len(clean) {
			return false
		}
		for i := range got {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The ASCII fast path must not change how non-ASCII input lexes: Unicode
// letters and decimal digits still make identifiers and numbers, Unicode
// white space still separates tokens, and string text is the source
// verbatim, a "--" inside it included.
func TestNonASCII(t *testing.T) {
	type tok struct {
		kind token.Kind
		text string
	}
	cases := []struct {
		src  string
		want []tok
	}{
		{"δ-net", []tok{{token.IDENT, "δ-net"}}},
		{"x٣ y", []tok{{token.IDENT, "x٣"}, {token.IDENT, "y"}}},
		{"٣٤", []tok{{token.INT, "٣٤"}}},
		{"٣.٤", []tok{{token.FLOAT, "٣.٤"}}},
		{"a\u00a0b\u2003c", []tok{{token.IDENT, "a"}, {token.IDENT, "b"}, {token.IDENT, "c"}}},
		{`"a -- b" c`, []tok{{token.STRING, "a -- b"}, {token.IDENT, "c"}}},
		{`"δ--ε"`, []tok{{token.STRING, "δ--ε"}}},
		{"\"a\xffb\"", []tok{{token.STRING, "a\uFFFDb"}}},
		{"\"a\xff", []tok{{token.ILLEGAL, "a\uFFFD"}}},
		{"é.ü", []tok{{token.IDENT, "é"}, {token.PERIOD, "."}, {token.IDENT, "ü"}}},
		{"→", []tok{{token.ILLEGAL, "→"}}},
	}
	for _, c := range cases {
		toks := lexAll(c.src)
		var got []tok
		for _, t := range toks[:len(toks)-1] {
			got = append(got, tok{t.Kind, t.Text})
		}
		if len(got) != len(c.want) {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q: token %d got %v, want %v", c.src, i, got[i], c.want[i])
			}
		}
	}
}

// Columns count runes, not bytes, on every path.
func TestNonASCIIPositions(t *testing.T) {
	toks := lexAll("δδ x\n\"é\" y")
	want := []token.Pos{{Offset: 0, Line: 1, Column: 1}, {Offset: 5, Line: 1, Column: 4}, {Offset: 7, Line: 2, Column: 1}, {Offset: 12, Line: 2, Column: 5}}
	for i, w := range want {
		if toks[i].Pos != w {
			t.Errorf("token %d (%v) at %+v, want %+v", i, toks[i], toks[i].Pos, w)
		}
	}
}
