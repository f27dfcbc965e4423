package main

import (
	"context"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for perfbench when spec-cold
// runs a cold repetition in a child process (os.Executable).
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-cold-pass" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	code := m.Run()
	if nmsldPath != "" {
		os.RemoveAll(filepath.Dir(nmsldPath))
	}
	os.Exit(code)
}

// tinySizes runs every workload in a second or two.
var tinySizes = sizes{
	coldDomains: 30,
	tenants:     3,
	minDomains:  5,
	maxDomains:  12,
	offeredRPS:  80,
	agents:      40,
	setupReps:   2,
	minReps:     2,
}

var (
	nmsldOnce sync.Once
	nmsldPath string
	nmsldErr  error
)

// buildNmsld compiles the daemon once for the svc-mixed tests.
func buildNmsld(t *testing.T) string {
	t.Helper()
	nmsldOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-nmsld")
		if err != nil {
			nmsldErr = err
			return
		}
		nmsldPath = filepath.Join(dir, "nmsld")
		out, err := exec.Command("go", "build", "-o", nmsldPath, "nmsl/cmd/nmsld").CombinedOutput()
		if err != nil {
			nmsldErr = err
			t.Logf("%s", out)
		}
	})
	if nmsldErr != nil {
		t.Fatalf("building nmsld: %v", nmsldErr)
	}
	return nmsldPath
}

func tinyEnv(t *testing.T, traced bool) *env {
	e := &env{sz: tinySizes, seed: 3, seconds: 1.5, workDir: t.TempDir(), log: io.Discard}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// TestWorkloadsTiny runs every workload, untraced and traced, at tiny
// sizes: every output check must pass and every metric of the mode
// must be reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				e := tinyEnv(t, traced)
				if w.name == "svc-mixed" {
					e.nmsldBin = buildNmsld(t)
				}
				out, err := w.run(e)
				if err != nil {
					t.Fatal(err)
				}
				if out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("%d of %d checks failed: %v", out.Failed, out.Attempted, out.Failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for _, m := range want {
					if _, ok := out.Metrics[m.name]; !ok {
						t.Errorf("metric %s not reported", m.name)
					}
				}
			})
		}
	}
}

// TestWrongPredictionFails drives nmsld with a deliberately wrong
// expectation for one tenant's verdict: every request on it must
// register as a failure, and the others must pass.
func TestWrongPredictionFails(t *testing.T) {
	e := tinyEnv(t, false)
	tenants, err := newTenants(tenantParams(e.sz, e.seed))
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(buildNmsld(t), filepath.Join(e.workDir, "state"), false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	cl := newAPIClient(d.base, svcConns)
	defer cl.close()
	ctx := context.Background()
	for _, tn := range tenants {
		body, err := specBody(tn.id+".nmsl", tn.src)
		if err != nil {
			t.Fatal(err)
		}
		tn.predict()
		if _, err := cl.put(ctx, tn.id, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkAll(ctx, cl, tenants); err != nil {
		t.Fatalf("correct predictions failed: %v", err)
	}

	wrong := tenants[0]
	wrong.mu.Lock()
	wrong.expect[wrong.gen]++ // one violation more than the truth
	wrong.mu.Unlock()
	sched := schedule(rand.New(rand.NewSource(1)), 200, 60, tenants, 0)
	onWrong := 0
	for _, r := range sched {
		if r.tenant == 0 {
			onWrong++
		}
	}
	res := drive(ctx, cl, nil, tenants, sched)
	if onWrong == 0 || res.failed != onWrong {
		t.Fatalf("%d requests on the mispredicted tenant, %d failed: %v", onWrong, res.failed, res.failures)
	}
	out := &outcome{}
	merge(out, "test", res)
	if out.Failed != onWrong || out.Attempted != len(sched) {
		t.Fatalf("outcome counts %d of %d failed, want %d of %d", out.Failed, out.Attempted, onWrong, len(sched))
	}
}

// TestWrongViolationCountFails feeds spec-cold's check a reference that
// is off by one.
func TestWrongViolationCountFails(t *testing.T) {
	r := &specRep{violations: 7, kindsOK: true, nconfigs: 4, agents: 4, digest: "d"}
	out := &outcome{}
	checkSpecRep(out, 0, r, specWant{violations: 7, configs: 4, digest: "d"})
	if out.Failed != 0 {
		t.Fatalf("matching reference failed: %v", out.Failures)
	}
	checkSpecRep(out, 1, r, specWant{violations: 8, configs: 4, digest: "d"})
	checkSpecRep(out, 2, r, specWant{violations: 7, configs: 4, digest: "other"})
	if out.Failed != 2 {
		t.Fatalf("wrong references registered %d failures, want 2: %v", out.Failed, out.Failures)
	}
}

func TestScheduleDeterministicAndBalanced(t *testing.T) {
	tenants, err := newTenants(tenantParams(tinySizes, 9))
	if err != nil {
		t.Fatal(err)
	}
	unit := balancedUnit(len(tenants), 0.1)
	a := schedule(rand.New(rand.NewSource(9)), 100, 4*unit, tenants, 0.1)
	b := schedule(rand.New(rand.NewSource(9)), 100, 4*unit, tenants, 0.1)
	c2 := schedule(rand.New(rand.NewSource(10)), 100, 4*unit, tenants, 0.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	// Another seed: the same (kind, tenant) multiset in another order.
	mix := func(s []svcReq) map[[2]int]int {
		m := map[[2]int]int{}
		for _, r := range s {
			m[[2]int{int(r.kind), r.tenant}]++
		}
		return m
	}
	if reflect.DeepEqual(a, c2) || !reflect.DeepEqual(mix(a), mix(c2)) {
		t.Fatal("another seed must reorder the same work")
	}
	if edits := mix(a)[[2]int{int(editSpec), 0}] * len(tenants); edits != len(a)/10 {
		t.Fatalf("%d edits in %d requests, want a tenth", edits, len(a))
	}
	if !reflect.DeepEqual(tenantParams(tinySizes, 9), tenantParams(tinySizes, 9)) {
		t.Fatal("same seed, different tenants")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, false)
	tr.do("a", root, false, func(int) { time.Sleep(5 * time.Millisecond) })
	tr.do("b", root, false, func(int) { time.Sleep(5 * time.Millisecond) })
	tr.end(root)
	agg := tr.finish()
	op := agg["op"]
	kids := agg["a"].TotalMS + agg["b"].TotalMS
	if d := op.TotalMS - op.SelfSum - kids; d > 1e-6 || d < -1e-6 {
		t.Fatalf("self %.3f + children %.3f != wall %.3f", op.SelfSum, kids, op.TotalMS)
	}
	if covered([][2]int64{{0, 10}, {5, 20}, {30, 40}}, 0, 35) != 25 {
		t.Fatal("overlapping children counted twice")
	}
}
