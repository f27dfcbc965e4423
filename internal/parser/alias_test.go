package parser

import (
	"testing"

	"nmsl/internal/paperspec"
)

// Item lists are carved from a shared slab, so each must end exactly at
// its length: an append by a later pass then reallocates instead of
// overwriting the items of the next clause or group.
func TestItemListsDoNotAlias(t *testing.T) {
	src := paperspec.Combined + `
type t ::= SEQUENCE { a INTEGER, b ( c d ) }; access Any; end type t.
domain d ::= process p(*, *, 5, "s") { x } ( y ); system s; end domain d.`
	f, err := Parse("alias", src)
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]Item
	groups := 0
	var collect func(items []Item)
	collect = func(items []Item) {
		lists = append(lists, items)
		for _, it := range items {
			if it.Kind == Group {
				groups++
				collect(it.Items)
			}
		}
	}
	for _, d := range f.Decls {
		for _, c := range d.Clauses {
			collect(c.Items)
		}
	}
	render := func() []string {
		out := make([]string, len(lists))
		for i, items := range lists {
			out[i] = (&Clause{Items: items}).String()
		}
		return out
	}
	before := render()
	for i, items := range lists {
		if cap(items) != len(items) {
			t.Errorf("item list %d %q: cap %d != len %d", i, before[i], cap(items), len(items))
		}
		_ = append(items, Item{Kind: Word, Text: "CLOBBERED"})
	}
	if groups < 5 || len(lists) < 20 {
		t.Fatalf("corpus too small: %d lists, %d groups", len(lists), groups)
	}
	for i, s := range render() {
		if s != before[i] {
			t.Errorf("item list %d changed by an append to another: %q -> %q", i, before[i], s)
		}
	}
}
