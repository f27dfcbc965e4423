package sema

import (
	"strings"
	"testing"

	"nmsl/internal/parser"
)

// These tests pin down the table-merge semantics of section 6.3 at the
// unit level: prepended entries win per action slot, and an entry that
// provides only some slots leaves the rest to later (basic) entries.

func TestResolveDeclMergesSlots(t *testing.T) {
	tbl := NewTables()
	ranBegin := ""
	// extension overrides only Begin for "type"; the basic End (which
	// registers into the Spec) must survive.
	tbl.PrependDecl(&DeclEntry{
		Type: "type",
		Generic: DeclAction{
			Begin: func(ctx *DeclContext) error {
				ranBegin = "extension"
				// still create the object the basic clause actions expect
				return basicTypeBegin(ctx)
			},
		},
	})
	res := tbl.ResolveDecl("type")
	if !res.Known() {
		t.Fatal("type unknown")
	}
	if res.Generic.Begin == nil || res.Generic.End == nil || res.Fallback == nil {
		t.Fatal("merge dropped slots")
	}
	ctx := &DeclContext{Spec: nil, Decl: &parser.Decl{Type: "type", Name: "x"}, a: &Analyzer{}}
	_ = res.Generic.Begin(ctx)
	if ranBegin != "extension" {
		t.Fatal("prepended Begin did not win")
	}
}

// basicTypeBegin mimics the basic action enough for the merge test.
func basicTypeBegin(ctx *DeclContext) error { return nil }

func TestResolveDeclUnknown(t *testing.T) {
	tbl := NewTables()
	r := tbl.ResolveDecl("gadget")
	if r.Known() {
		t.Fatal("unknown decl type resolved")
	}
}

func TestResolveClauseUnionsSubKeywords(t *testing.T) {
	tbl := NewTables()
	tbl.PrependClause(&ClauseEntry{
		DeclType:    "process",
		Keyword:     "exports",
		SubKeywords: []string{"via"},
	})
	res := tbl.ResolveClause("process", "exports")
	for _, kw := range []string{"to", "access", "frequency", "via"} {
		if !res.SubKeywords[kw] {
			t.Errorf("subkeyword %q lost in merge", kw)
		}
	}
	// basic generic action survives (extension declared none)
	if res.Generic == nil {
		t.Fatal("basic generic action lost")
	}
}

func TestResolveClauseOutputPrecedence(t *testing.T) {
	tbl := NewTables()
	mk := func(tag, text string) map[string]func(*ClauseContext, *Emitter) error {
		return map[string]func(*ClauseContext, *Emitter) error{
			tag: func(ctx *ClauseContext, e *Emitter) error {
				e.Println(text)
				return nil
			},
		}
	}
	tbl.AppendClause(&ClauseEntry{Keyword: "k", Outputs: mk("t", "basic")})
	tbl.PrependClause(&ClauseEntry{Keyword: "k", Outputs: mk("t", "ext")})
	res := tbl.ResolveClause("anything", "k")
	var b strings.Builder
	e := NewEmitter(&b)
	if err := res.Output("t")(nil, e); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "ext" {
		t.Fatalf("output %q", b.String())
	}
	if res.Output("missing") != nil {
		t.Fatal("missing tag resolved")
	}
}

func TestClauseEntryDeclTypeScoping(t *testing.T) {
	tbl := NewTables()
	// "supports" is defined for process and system separately; resolving
	// for "domain" must not match either.
	r1 := tbl.ResolveClause("domain", "supports")
	if r1.Known() {
		t.Fatal("supports leaked into domain")
	}
	r2 := tbl.ResolveClause("process", "supports")
	if !r2.Known() {
		t.Fatal("process supports missing")
	}
	// an entry with empty DeclType applies everywhere
	tbl.PrependClause(&ClauseEntry{Keyword: "anywhere"})
	r3 := tbl.ResolveClause("domain", "anywhere")
	r4 := tbl.ResolveClause("type", "anywhere")
	if !r3.Known() || !r4.Known() {
		t.Fatal("wildcard decl type not honored")
	}
}

func TestSplitClauseKeywordPositions(t *testing.T) {
	c := &parser.Clause{Items: []parser.Item{
		{Kind: parser.Word, Text: "exports"},
		{Kind: parser.Word, Text: "mgmt.mib"},
		{Kind: parser.Word, Text: "to"},
		{Kind: parser.Str, Text: "public"},
		{Kind: parser.Word, Text: "access"},
		{Kind: parser.Word, Text: "ReadOnly"},
	}}
	subs := SplitClause(c, map[string]bool{"to": true, "access": true})
	if len(subs) != 3 {
		t.Fatalf("subs: %+v", subs)
	}
	if subs[0].Keyword != "exports" || len(subs[0].Items) != 1 {
		t.Errorf("lead: %+v", subs[0])
	}
	if subs[1].Keyword != "to" || subs[1].Items[0].Text != "public" {
		t.Errorf("to: %+v", subs[1])
	}
	if subs[2].Keyword != "access" || subs[2].Items[0].Text != "ReadOnly" {
		t.Errorf("access: %+v", subs[2])
	}
	// a word equal to a subkeyword in lead position (index 0) starts the
	// clause, not a nested subclause
	c2 := &parser.Clause{Items: []parser.Item{{Kind: parser.Word, Text: "to"}}}
	subs2 := SplitClause(c2, map[string]bool{"to": true})
	if len(subs2) != 1 || subs2[0].Keyword != "to" {
		t.Fatalf("subs2: %+v", subs2)
	}
}

func TestErrorListRendering(t *testing.T) {
	var l ErrorList
	if l.Err() != nil {
		t.Error("empty list is an error")
	}
	if l.Error() != "no errors" {
		t.Errorf("empty: %q", l.Error())
	}
	l = append(l, &Error{Msg: "first"})
	if l.Error() != "first" {
		t.Errorf("one: %q", l.Error())
	}
	l = append(l, &Error{Msg: "second"})
	if !strings.Contains(l.Error(), "1 more") {
		t.Errorf("two: %q", l.Error())
	}
}

func TestEmitterErrorSticky(t *testing.T) {
	e := NewEmitter(failingWriter{})
	e.Println("x")
	if e.Err() == nil {
		t.Fatal("write error lost")
	}
	e.Printf("more %d", 1) // must not panic
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &Error{Msg: "write failed"}

// SplitClause hands out sub-slices of the clause's items; each must end
// at its length, so an append to one subclause never overwrites the
// next subclause's keyword or items, nor the clause's.
func TestSplitClauseNoAliasing(t *testing.T) {
	f, err := parser.Parse("alias", `process p ::= exports a.b to "x" access ReadOnly frequency >= 5 minutes;
	5 to access x; to to; queries A requests m frequency >= 5 minutes; end process p.`)
	if err != nil {
		t.Fatal(err)
	}
	kws := map[string]bool{"to": true, "access": true, "frequency": true, "requests": true}
	want := []string{
		`exports[a.b;] to["x";] access[ReadOnly;] frequency[>= 5 minutes;]`,
		`[5;] to[;] access[x;]`,
		`to[;] to[;]`,
		`queries[A;] requests[m;] frequency[>= 5 minutes;]`,
	}
	for ci, c := range f.Decls[0].Clauses {
		clause := c.String()
		subs := SplitClause(c, kws)
		var before []string
		for _, s := range subs {
			if cap(s.Items) != len(s.Items) {
				t.Errorf("%s: subclause %q cap %d != len %d", clause, s.Keyword, cap(s.Items), len(s.Items))
			}
			if len(s.Items) == 0 && s.Items != nil {
				t.Errorf("%s: empty subclause %q has non-nil items", clause, s.Keyword)
			}
			before = append(before, s.Keyword+"["+(&parser.Clause{Items: s.Items}).String()+"]")
		}
		if got := strings.Join(before, " "); got != want[ci] {
			t.Errorf("split %s:\n got %s\nwant %s", clause, got, want[ci])
		}
		for _, s := range subs {
			_ = append(s.Items, parser.Item{Kind: parser.Word, Text: "CLOBBERED"})
		}
		for i, s := range subs {
			if got := s.Keyword + "[" + (&parser.Clause{Items: s.Items}).String() + "]"; got != before[i] {
				t.Errorf("%s: subclause %d changed %q -> %q", clause, i, before[i], got)
			}
		}
		if got := c.String(); got != clause {
			t.Errorf("clause changed %q -> %q", clause, got)
		}
	}
}
