package consistency_test

import (
	"fmt"
	"strings"
	"testing"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

// grantedBruteForce is the reference GrantedCommunity: it scans every
// permission in the model for each reference.
func grantedBruteForce(m *consistency.Model, ref *consistency.Ref) string {
	best := ""
	for i := range m.Perms {
		p := &m.Perms[i]
		if p.GrantorInst != "" && p.GrantorInst != ref.Target.ID {
			continue
		}
		if p.GrantorDomain != "" && !m.PartyInDomain(ref.Target.ID, p.GrantorDomain) {
			continue
		}
		if !m.PartyInDomain(ref.Source.ID, p.Grantee) {
			continue
		}
		if !p.Var.Contains(ref.Var) || !p.Access.Allows(ref.Access) {
			continue
		}
		if best == "" || p.Grantee < best {
			best = p.Grantee
		}
	}
	return best
}

// tiedGranteesSource is a netsim internet (nested one level) where the
// grant covering a reference varies: every third leaf domain also
// exports to the querying poller's own domain (a tie "dom…" wins over
// "public"), some agent types export to the poller's super-domain
// alongside "public" (a tie "public" wins) or instead of it, and some
// export only a subtree that misses the polled variable (no grantee).
func tiedGranteesSource(p netsim.Params) string {
	src := netsim.Source(p)
	for d := 0; d < p.Domains; d++ {
		querier := (d + p.Domains - 1) % p.Domains
		if d%3 == 0 {
			end := fmt.Sprintf("end domain dom%d.\n", d)
			ex := fmt.Sprintf("    exports mgmt.mib to \"dom%d\" access ReadOnly;\n", querier)
			src = strings.Replace(src, end, ex+end, 1)
		}
		export := fmt.Sprintf("process agentT%d ::=\n    supports mgmt.mib.system, mgmt.mib.ip;\n    exports mgmt.mib.system to \"public\"", d)
		super := fmt.Sprintf("exports mgmt.mib.system to \"super0-%d\"", querier/10)
		switch d % 4 {
		case 0:
			src = strings.Replace(src, export, export+" access Any;\n    "+super, 1)
		case 1:
			src = strings.Replace(src, export, strings.Replace(export, "mgmt.mib.system to", "mgmt.mib.ip to", 1), 1)
		case 2:
			src = strings.Replace(src, export, strings.Replace(export, `exports mgmt.mib.system to "public"`, super, 1), 1)
		}
	}
	return src
}

func compileModel(t *testing.T, src string) *consistency.Model {
	t.Helper()
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := sema.NewAnalyzer()
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return consistency.BuildModel(spec)
}

func TestGrantedCommunityMatchesBruteForce(t *testing.T) {
	p := netsim.Params{Domains: 30, SystemsPerDomain: 2, NestingDepth: 1, InconsistencyRate: 0.2, Seed: 7}
	cases := map[string]*consistency.Model{
		"paper":        compileModel(t, paperspec.Combined),
		"tied-grantee": compileModel(t, tiedGranteesSource(p)),
	}
	for name, q := range map[string]netsim.Params{
		"netsim":        p,
		"netsim-star":   {Domains: 12, SystemsPerDomain: 3, StarTargets: true, Seed: 2},
		"netsim-chains": {Domains: 12, SystemsPerDomain: 1, RecursiveChains: true, NestingDepth: 2, Seed: 3},
	} {
		m, err := netsim.Model(q)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = m
	}
	granted := map[string]int{}
	for name, m := range cases {
		if len(m.Refs) == 0 {
			t.Fatalf("%s: no references", name)
		}
		for i := range m.Refs {
			ref := &m.Refs[i]
			got, want := m.GrantedCommunity(ref), grantedBruteForce(m, ref)
			if got != want {
				t.Errorf("%s: %s: granted %q, brute force %q", name, ref, got, want)
			}
			granted[name+"/"+strings.TrimRight(got, "0123456789")]++
		}
	}
	// The tied corpus must reach every outcome: each grantee kind wins
	// somewhere, and some references have no grantee at all.
	if granted["tied-grantee/dom"] == 0 || granted["tied-grantee/super0-"] == 0 ||
		granted["tied-grantee/public"] == 0 || granted["tied-grantee/"] == 0 {
		t.Fatalf("tied corpus does not exercise the tie-break: %v", granted)
	}
}
