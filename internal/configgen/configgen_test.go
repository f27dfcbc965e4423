package configgen

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/mib"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
	"nmsl/internal/snmp"
)

func buildModel(t *testing.T, src string) *consistency.Model {
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

func TestGeneratePaperSpec(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	configs := Generate(m)
	// Both snmpdReadOnly instances get configurations; the application
	// (snmpaddr) does not.
	if len(configs) != 2 {
		t.Fatalf("configs for %v", keys(configs))
	}
	cfg := configs["snmpdReadOnly@romano.cs.wisc.edu#0"]
	if cfg == nil {
		t.Fatalf("missing romano config; have %v", keys(configs))
	}
	cc := cfg.Communities["public"]
	if cc == nil {
		t.Fatalf("missing public community: %+v", cfg)
	}
	if cc.Access != mib.AccessReadOnly {
		t.Errorf("access %v", cc.Access)
	}
	if cc.MinInterval != 5*time.Minute {
		t.Errorf("interval %v", cc.MinInterval)
	}
	mibOID := m.Spec.MIB.Lookup("mgmt.mib").OID()
	if len(cc.View) != 1 || cc.View[0].Prefix.Compare(mibOID) != 0 {
		t.Errorf("view %v", cc.View)
	}
}

func keys[V any](m map[string]*V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDomainRestrictionNarrowsConfig(t *testing.T) {
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public" access Any frequency >= 1 minutes;
end process agent.
system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "inside".
domain lab ::=
    system inside;
    exports mgmt.mib.system to "public" access ReadOnly frequency >= 10 minutes;
end domain lab.
domain public ::= domain lab; end domain public.
`
	m := buildModel(t, src)
	configs := Generate(m)
	cfg := configs["agent@inside#0"]
	if cfg == nil {
		t.Fatal("missing config")
	}
	cc := cfg.Communities["public"]
	if cc == nil {
		t.Fatal("public community dropped")
	}
	// The domain narrows Any -> ReadOnly, 60s -> 600s, mgmt.mib -> system.
	if cc.Access != mib.AccessReadOnly {
		t.Errorf("access %v", cc.Access)
	}
	if cc.MinInterval != 10*time.Minute {
		t.Errorf("interval %v", cc.MinInterval)
	}
	sysOID := m.Spec.MIB.Lookup("mgmt.mib.system").OID()
	if len(cc.View) != 1 || cc.View[0].Prefix.Compare(sysOID) != 0 {
		t.Errorf("view %v", cc.View)
	}
}

// mixedAccessSrc has one agent exporting two subtrees to one grantee
// under different modes (ReadOnly and Any).
const mixedAccessSrc = `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib.system to "ops" access ReadOnly;
    exports mgmt.mib.ip to "ops" access Any;
end process agent.
system "h" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "h".
domain lab ::= system h; end domain lab.
domain ops ::= end domain ops.
`

// TestGenerateMixedAccessDoesNotLeak is the regression test for the
// access-mode merge bug: a grantee holding ReadWrite on one subtree and
// ReadOnly on another used to get one community-wide mode covering both,
// leaking write access onto the ReadOnly export. The generated policy —
// and a live agent running it — must reject a Set on the ReadOnly
// subtree while still accepting one on the writable subtree.
func TestGenerateMixedAccessDoesNotLeak(t *testing.T) {
	m := buildModel(t, mixedAccessSrc)
	cfg := Generate(m)["agent@h#0"]
	if cfg == nil {
		t.Fatal("missing config")
	}
	cc := cfg.Communities["ops"]
	if cc == nil {
		t.Fatalf("missing ops community: %+v", cfg)
	}
	sysDescr := m.Spec.MIB.Lookup("mgmt.mib.system.sysDescr").OID()
	ttl := m.Spec.MIB.Lookup("mgmt.mib.ip.ipDefaultTTL").OID()
	if cc.Allows(sysDescr, mib.AccessWriteOnly) {
		t.Errorf("write access leaked onto the ReadOnly subtree: %+v", cc.View)
	}
	if !cc.Allows(sysDescr, mib.AccessReadOnly) {
		t.Errorf("ReadOnly subtree lost read access: %+v", cc.View)
	}
	if !cc.Allows(ttl, mib.AccessWriteOnly) || !cc.Allows(ttl, mib.AccessReadOnly) {
		t.Errorf("ReadWrite subtree over-restricted: %+v", cc.View)
	}

	// End to end: a live agent running this config enforces the split.
	store := snmp.NewStore()
	snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
	agent := snmp.NewAgent(store, cfg)
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	client, err := snmp.Dial(addr.String(), "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	err = client.Set(snmp.Binding{OID: sysDescr, Value: snmp.Str("hacked")})
	re, ok := err.(*snmp.RequestError)
	if !ok || re.Status != snmp.ReadOnly {
		t.Fatalf("Set on ReadOnly-exported variable: %v (want ReadOnly error)", err)
	}
	if err := client.Set(snmp.Binding{OID: ttl, Value: snmp.Int64(63)}); err != nil {
		t.Fatalf("Set on ReadWrite-exported variable: %v", err)
	}
	if _, err := client.Get(sysDescr); err != nil {
		t.Fatalf("Get on ReadOnly-exported variable: %v", err)
	}
}

func TestDomainRestrictionDropsUnGrantedCommunity(t *testing.T) {
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "outsiders" access ReadOnly;
end process agent.
system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "inside".
domain lab ::=
    system inside;
    exports mgmt.mib to "friends" access ReadOnly;
end domain lab.
domain outsiders ::= end domain outsiders.
domain friends ::= end domain friends.
`
	m := buildModel(t, src)
	configs := Generate(m)
	cfg := configs["agent@inside#0"]
	if _, ok := cfg.Communities["outsiders"]; ok {
		t.Errorf("outsiders community should be dropped by lab's restriction: %+v", cfg)
	}
}

func TestSnmpdConfRoundTrip(t *testing.T) {
	cfg := &snmp.Config{
		AdminCommunity: "adm",
		Communities: map[string]*snmp.CommunityConfig{
			"public": {
				Access:      mib.AccessReadOnly,
				View:        []snmp.View{{Prefix: mib.OID{1, 3, 6, 1, 2, 1}}, {Prefix: mib.OID{1, 3, 6, 1, 4}, Access: mib.AccessReadOnly}},
				MinInterval: 300 * time.Second,
			},
			"ops": {
				Access: mib.AccessAny,
				View:   []snmp.View{{Prefix: mib.OID{1, 3, 6}}},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteSnmpdConf(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnmpdConf(&buf)
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, buf.String())
	}
	if got.AdminCommunity != "adm" || len(got.Communities) != 2 {
		t.Fatalf("got %+v", got)
	}
	pc := got.Communities["public"]
	if pc.Access != mib.AccessReadOnly || pc.MinInterval != 300*time.Second || len(pc.View) != 2 {
		t.Fatalf("public %+v", pc)
	}
}

func TestParseSnmpdConfErrors(t *testing.T) {
	bad := []string{
		"community a b\n",
		"community a Bogus 5 1.3\n",
		"community a ReadOnly x 1.3\n",
		"community a ReadOnly 5 1.x\n",
		"admin\n",
		"mystery directive\n",
	}
	for _, src := range bad {
		if _, err := ParseSnmpdConf(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestCompilerLevelOutputs(t *testing.T) {
	f, err := parser.Parse("paper", paperspec.Combined)
	if err != nil {
		t.Fatal(err)
	}
	a := sema.NewAnalyzer()
	RegisterOutput(a.Tables())
	a.AnalyzeFile(f)
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	var barts bytes.Buffer
	if err := a.Generate(TagBartsSnmpd, &barts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(barts.String(), "community public ReadOnly 300 mgmt.mib") {
		t.Fatalf("BartsSnmpd output:\n%s", barts.String())
	}
	var nvp bytes.Buffer
	if err := a.Generate(TagNVP, &nvp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nvp.String(), `"community":"public"`) {
		t.Fatalf("nvp output:\n%s", nvp.String())
	}
}

func TestInstallFiles(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	configs := Generate(m)
	dir := t.TempDir()
	paths, err := InstallFiles(dir, TagBartsSnmpd, configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "community public") {
		t.Fatalf("file content:\n%s", data)
	}
	// nvp format parses back as JSON config
	jpaths, err := InstallFiles(dir, TagNVP, configs)
	if err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(jpaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snmp.UnmarshalConfig(bytes.TrimSpace(jdata)); err != nil {
		t.Fatalf("nvp file not loadable: %v", err)
	}
	if _, err := InstallFiles(dir, "weird", configs); err == nil {
		t.Error("unknown format accepted")
	}
	// filenames are sanitized
	if strings.ContainsAny(filepath.Base(paths[0]), "@#") {
		t.Errorf("unsanitized path %s", paths[0])
	}
}

func TestInstallLiveEndToEnd(t *testing.T) {
	// The full prescriptive loop: generate from the paper spec, install
	// into a live agent over UDP, verify the agent now enforces the
	// spec's access and frequency.
	m := buildModel(t, paperspec.Combined)
	configs := Generate(m)
	cfg := configs["snmpdReadOnly@romano.cs.wisc.edu#0"]
	cfg.AdminCommunity = "nmsl-admin"

	store := snmp.NewStore()
	snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
	agent := snmp.NewAgent(store, &snmp.Config{
		Communities:    map[string]*snmp.CommunityConfig{},
		AdminCommunity: "nmsl-admin",
	})
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	if err := InstallLive(addr.String(), "nmsl-admin", cfg); err != nil {
		t.Fatalf("install: %v", err)
	}

	client, err := snmp.Dial(addr.String(), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	oid := m.Spec.MIB.Lookup("mgmt.mib.system.sysDescr").OID()
	if _, err := client.Get(oid); err != nil {
		t.Fatalf("in-spec query rejected: %v", err)
	}
	// Second query violates the 5-minute frequency clause.
	_, err = client.Get(oid)
	re, ok := err.(*snmp.RequestError)
	if !ok || re.Status != snmp.GenErr {
		t.Fatalf("out-of-spec query result: %v", err)
	}
	// Writes are rejected: the spec exported ReadOnly. A fresh agent is
	// used because the rate limiter of the first one already counts the
	// queries above against public's 5-minute window.
	agent2 := snmp.NewAgent(store, &snmp.Config{
		Communities:    map[string]*snmp.CommunityConfig{},
		AdminCommunity: "nmsl-admin",
	})
	addr2, err := agent2.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent2.Close()
	if err := InstallLive(addr2.String(), "nmsl-admin", cfg); err != nil {
		t.Fatalf("install: %v", err)
	}
	client2, err := snmp.Dial(addr2.String(), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	err = client2.Set(snmp.Binding{OID: oid, Value: snmp.Str("hacked")})
	re, ok = err.(*snmp.RequestError)
	if !ok || re.Status != snmp.ReadOnly {
		t.Fatalf("write result: %v", err)
	}
}
