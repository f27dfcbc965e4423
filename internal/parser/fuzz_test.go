package parser

import (
	"testing"

	"nmsl/internal/paperspec"
)

// FuzzParse exercises the full front end on arbitrary input: the parser
// must never panic, and any File it returns must be re-renderable
// through Clause.String without panicking. Run with
//
//	go test -fuzz=FuzzParse ./internal/parser
//
// The seed corpus covers every declaration kind and the known tricky
// token sequences (trailer periods, dotted names, version literals), and
// the non-ASCII input the lexer's ASCII fast path hands to unicode.
func FuzzParse(f *testing.F) {
	seeds := []string{
		paperspec.Figure42,
		paperspec.Figure44,
		paperspec.Figure46,
		paperspec.Figure48,
		"type t ::= SEQUENCE { a INTEGER }; access Any; end type t.",
		"domain d ::= end domain d.",
		"process p(A: Process) ::= queries A requests m frequency >= 5 minutes; end process p.",
		"system s ::= cpu x; interface i net n speed 10 bps; opsys o version 4.0.1; end system s.",
		"end end end .",
		"a b ::= ; . ::=",
		`x "unterminated`,
		"process p ::= exports a to \"d\" access ReadOnly frequency >= 5 minutes; end process p.",
		"-- just a comment",
		"type t ::= OCTET STRING; end type t.",
		"domain d ::= process p(*, *, 5, \"s\"); end domain d.",
		"domain δ-net ::= system x٣; end domain δ-net.",
		"type t ::= a\u00a0b\u2003c; end type t.",
		"process p ::= exports m to \"a -- b\"; end process p.",
		"type t ::= \"a\xffb\" ٣.٤; end type t.",
		"domain a . b ::= x . y.z; end domain a.b.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, _ := Parse("fuzz", src)
		if file == nil {
			return
		}
		for _, d := range file.Decls {
			for _, c := range d.Clauses {
				_ = c.String()
				_ = c.Keyword()
			}
		}
	})
}
