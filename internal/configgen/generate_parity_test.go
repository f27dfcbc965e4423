package configgen

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/mib"
	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/snmp"
)

// generateFullScan is the reference Generate: it finds each agent's
// permissions by scanning every permission in the model rather than
// reading the grantor index.
func generateFullScan(m *consistency.Model) map[string]*snmp.Config {
	out := map[string]*snmp.Config{}
	for _, in := range m.Instances {
		if !in.Proc.IsAgent() {
			continue
		}
		cfg := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}}
		for i := range m.Perms {
			p := &m.Perms[i]
			if p.GrantorInst != in.ID {
				continue
			}
			cc := cfg.Communities[p.Grantee]
			if cc == nil {
				cc = &snmp.CommunityConfig{Access: mib.AccessNone}
				cfg.Communities[p.Grantee] = cc
			}
			cc.View = append(cc.View, snmp.View{Prefix: p.Var.OID(), Access: exportAccess(p.Access)})
			if iv := time.Duration(p.MinPeriod * float64(time.Second)); iv > cc.MinInterval {
				cc.MinInterval = iv
			}
		}
		applyDomainRestrictions(m, in, cfg)
		for _, cc := range cfg.Communities {
			sortViews(cc)
			summarizeAccess(cc)
		}
		out[in.ID] = cfg
	}
	return out
}

// restrictingSource is a netsim internet where every third leaf domain
// restricts outside access with domain-level exports (a narrower
// subtree, a stricter interval, or a grantee that drops the "public"
// community), and every other agent type also exports mgmt.mib.ip under
// a different mode than its system export, so its agents carry
// mixed-access views.
func restrictingSource(p netsim.Params) string {
	src := netsim.Source(p)
	for d := 0; d < p.Domains; d++ {
		var ex string
		switch d % 3 {
		case 0:
			ex = `exports mgmt.mib.system.sysDescr to "public" access Any frequency >= 10 minutes;`
		case 1:
			ex = fmt.Sprintf(`exports mgmt.mib to "dom%d" access ReadOnly;`, (d+p.Domains-1)%p.Domains)
		}
		if ex != "" {
			end := fmt.Sprintf("end domain dom%d.\n", d)
			src = strings.Replace(src, end, "    "+ex+"\n"+end, 1)
		}
		if d%2 == 0 {
			end := fmt.Sprintf("end process agentT%d.\n", d)
			src = strings.Replace(src, end, "    exports mgmt.mib.ip to \"public\" access WriteOnly;\n"+end, 1)
		}
	}
	return src
}

func TestGenerateMatchesFullScan(t *testing.T) {
	p := netsim.Params{Domains: 30, SystemsPerDomain: 2, NestingDepth: 1, InconsistencyRate: 0.2, Seed: 4}
	cases := map[string]*consistency.Model{
		"paper":                    buildModel(t, paperspec.Combined),
		"mixed-access":             buildModel(t, mixedAccessSrc),
		"restricting":              buildModel(t, restrictingSource(p)),
		"restricting+mixed-access": buildModel(t, restrictingSource(p)+mixedAccessSrc),
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
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			got, want := Generate(m), generateFullScan(m)
			if len(got) != len(want) {
				t.Fatalf("%d configs, full scan has %d", len(got), len(want))
			}
			for id, w := range want {
				if g := got[id]; g.Digest() != w.Digest() {
					t.Errorf("%s: config differs from the full scan:\n got  %+v\n want %+v", id, g, w)
				}
			}
		})
	}
}

// The restricting corpus must actually reach the restriction rule and
// the mixed-access path, or the parity above proves little.
func TestRestrictingSourceExercisesRestrictions(t *testing.T) {
	m := buildModel(t, restrictingSource(netsim.Params{Domains: 6, SystemsPerDomain: 2, Seed: 1}))
	configs := Generate(m)
	var dropped, clipped, mixed bool
	for _, in := range m.Instances {
		cfg := configs[in.ID]
		if cfg == nil {
			continue
		}
		pub := cfg.Communities["public"]
		switch {
		case pub == nil:
			dropped = true
		case pub.MinInterval == 10*time.Minute:
			clipped = true
		}
		for _, cc := range cfg.Communities {
			modes := map[mib.Access]bool{}
			for _, v := range cc.View {
				modes[v.Access] = true
			}
			mixed = mixed || len(modes) > 1
		}
	}
	if !dropped || !clipped || !mixed {
		t.Fatalf("corpus misses a case: dropped=%v clipped=%v mixed=%v", dropped, clipped, mixed)
	}
}
