package parser_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/token"
)

var update = flag.Bool("update", false, "rewrite testdata/parsetree.golden from the current parser")

const goldenPath = "testdata/parsetree.golden"

// parityCorpus is every input the parse-tree golden covers: the paper's
// figures, the repository's spec, extension and contract files, and a
// 100-domain netsim internet with nesting and inconsistencies.
func parityCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{
		"paper/Figure42":     paperspec.Figure42,
		"paper/Figure44":     paperspec.Figure44,
		"paper/Figure46":     paperspec.Figure46,
		"paper/Figure48":     paperspec.Figure48,
		"paper/PublicDomain": paperspec.PublicDomain,
		"paper/CSWisc":       paperspec.CSWisc,
		"paper/Combined":     paperspec.Combined,
		"netsim/100-depth2-inconsistent": netsim.Source(netsim.Params{
			Domains: 100, SystemsPerDomain: 2, NestingDepth: 2, InconsistencyRate: 0.1, Seed: 1,
		}),
		"dotted/spaced": "domain a . b ::= x . y.z -- c\n . w; p(q. r); end domain a . b.",
		"nonascii":      "domain δ-net ::= system x٣; interface é\u00a0net \"a -- b\" ٣.٤; end domain δ-net.",
		// Malformed inputs pin error recovery and the error list.
		"broken/error-order":  errorOrderSrc,
		"broken/ends":         "end end end .",
		"broken/stray":        "a b ::= ; . ::=",
		"broken/unterminated": `x "unterminated`,
		"broken/trailer":      "domain a.b ::= x y.z; end domain a.c.\ntype t(A: B; 5, *) ::= { a ( b ; } ) ; end type u.",
		"broken/eof":          "process p(A: ::= queries",
	}
	for _, pattern := range []string{"*.nmsl", "*.nmslext", "contracts/*.ncs"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			corpus["testdata/"+filepath.ToSlash(strings.TrimPrefix(p, filepath.Join("..", "..", "testdata")+string(filepath.Separator)))] = string(src)
		}
	}
	return corpus
}

func hashPos(h hash.Hash, p token.Pos) { fmt.Fprintf(h, "@%d:%d:%d", p.Offset, p.Line, p.Column) }

// hashItems hashes every item's kind and position, recursing into groups,
// so a parser that renders the same text but misplaces a group member
// still changes the digest.
func hashItems(h hash.Hash, items []parser.Item) {
	for _, it := range items {
		fmt.Fprintf(h, " %d", it.Kind)
		hashPos(h, it.Pos)
		if it.Kind == parser.Group {
			h.Write([]byte{'['})
			hashItems(h, it.Items)
			h.Write([]byte{']'})
		}
	}
}

// treeDigest hashes the whole parse tree of src — each declaration's
// header, parameters, trailer position, every clause's rendering and
// position, every item's position — together with the error list.
func treeDigest(src string) string {
	f, err := parser.Parse("parity", src)
	h := sha256.New()
	for _, d := range f.Decls {
		fmt.Fprintf(h, "decl %q %q %v", d.Type, d.Name, d.Quoted)
		hashPos(h, d.Pos)
		for _, p := range d.Params {
			fmt.Fprintf(h, "\nparam %q %q", p.Name, p.Type)
			if p.Value != nil {
				fmt.Fprintf(h, " value %q %d", p.Value.String(), p.Value.Kind)
				hashItems(h, []parser.Item{*p.Value})
			}
			hashPos(h, p.Pos)
		}
		for _, c := range d.Clauses {
			fmt.Fprintf(h, "\nclause %q", c.String())
			hashPos(h, c.Pos)
			hashItems(h, c.Items)
		}
		h.Write([]byte("\nend"))
		hashPos(h, d.End)
		h.Write([]byte{'\n'})
	}
	if err != nil {
		for _, e := range err.(parser.ErrorList) {
			fmt.Fprintf(h, "error %s\n", e)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestParseTreeGolden pins the parser's output on the parity corpus to
// digests recorded before the front end streamed its tokens. Regenerate
// only for an intended change of the parse tree:
//
//	go test ./internal/parser -run TestParseTreeGolden -update
func TestParseTreeGolden(t *testing.T) {
	corpus := parityCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]string, len(names))
	for _, name := range names {
		got[name] = treeDigest(corpus[name])
	}
	if *update {
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if want[name] == "" {
			t.Errorf("%s: no golden digest (run with -update for a new input)", name)
		} else if got[name] != want[name] {
			t.Errorf("%s: parse tree digest %s, golden %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := corpus[name]; !ok {
			t.Errorf("golden names %s, which is no longer in the corpus", name)
		}
	}
}

// errorOrderSrc carries a parser error on line 1 and a lexer error on
// line 3.
const errorOrderSrc = "process p ::= queries a . ;\nend process p.\ntype t ::= a @ b; end type t."

// Lexer errors come before parser errors in the list, each group in
// source order, whatever their relative positions.
func TestErrorOrderLexerThenParser(t *testing.T) {
	_, err := parser.Parse("order", errorOrderSrc)
	el, ok := err.(parser.ErrorList)
	if !ok {
		t.Fatalf("err = %v, want ErrorList", err)
	}
	var got []string
	for _, e := range el {
		got = append(got, e.Error())
	}
	want := []string{
		`3:14: illegal character '@'`,
		`1:25: unexpected "." inside clause (missing ";"?)`,
		`3:14: unexpected ILLEGAL("@") in clause`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("errors:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
