package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/megafleet"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/reconcile"
	"nmsl/internal/snmp"
)

// The fleet-push fleet is a netsim fleetScenario internet; each push
// is followed by an out-of-band tamper of a tamperFrac share of its
// agents. Rollout and sweep run fleetWorkers workers each: on two CPUs
// two already match 64. Retries and timeouts keep their defaults; on
// the loss-free in-memory network they never fire.
const (
	fleetScenario = netsim.Scenario("internet")
	tamperFrac    = 0.05
	fleetWorkers  = 2
)

const fleetAdmin = "bench-admin"

// The two revisions the pushes alternate between differ in every
// agent's export frequency, hence in every agent's configuration (the
// community's minimum interval). Pollers ask every 5 minutes, so both
// revisions are consistent.
const (
	exportRevA = "access ReadOnly\n        frequency >= 5 minutes;"
	exportRevB = "access ReadOnly\n        frequency >= 4 minutes;"
)

// revision is one spec revision with the reference every push of it is
// checked against.
type revision struct {
	name    string
	c       *compiled
	rec     *reconcile.Reconciler
	desired map[string]string // instance → digest of the installed config
	drift   *driftLog
}

// driftLog collects the reconciler's events (two sweep shards report
// concurrently): the agents found drifted, and any event other than
// drift and heal, which on a clean network is a failure.
type driftLog struct {
	mu       sync.Mutex
	ids      map[string]bool
	problems []string
}

func (d *driftLog) event(ev reconcile.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch ev.Kind {
	case reconcile.EventDrift:
		d.ids[ev.Instance] = true
	case reconcile.EventHealed:
	default:
		d.problems = append(d.problems, ev.String())
	}
}

func (d *driftLog) take() (map[string]bool, []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids, problems := d.ids, d.problems
	d.ids, d.problems = map[string]bool{}, nil
	return ids, problems
}

// desiredDigests is the reference for a push: the digest each target's
// installed configuration must have, computed from the revision's
// generated configs independently of the rollout.
func desiredDigests(c *compiled, targets []configgen.Target) (map[string]string, error) {
	cfgs := configgen.Generate(c.model)
	out := make(map[string]string, len(targets))
	memo := map[*snmp.Config]string{}
	for _, tgt := range targets {
		cfg := cfgs[tgt.InstanceID]
		if cfg == nil {
			return nil, fmt.Errorf("no configuration generated for %s", tgt.InstanceID)
		}
		d, ok := memo[cfg]
		if !ok {
			d = configgen.DesiredConfig(cfg, tgt).Digest()
			memo[cfg] = d
		}
		out[tgt.InstanceID] = d
	}
	return out, nil
}

// agentCounters sums request and retransmit counters and snapshots each
// agent's config-load count, in target order.
func agentCounters(f *megafleet.Fleet) (loads []int64, requests, retransmits int64) {
	loads = make([]int64, len(f.Targets))
	for i, tgt := range f.Targets {
		st := f.Agents[tgt.InstanceID].Stats()
		loads[i] = st.ConfigLoads
		requests += st.Requests
		retransmits += st.Retransmits
	}
	return loads, requests, retransmits
}

// unconverged counts agents whose live configuration is not the
// revision's: ground truth, read off the agents, not over the network.
func unconverged(f *megafleet.Fleet, desired map[string]string) int {
	n := 0
	for _, tgt := range f.Targets {
		if f.Agents[tgt.InstanceID].ConfigSnapshot().Digest() != desired[tgt.InstanceID] {
			n++
		}
	}
	return n
}

func runFleetPush(e *env) (*outcome, error) {
	out := &outcome{}
	ctx := context.Background()
	p, err := netsim.ScenarioParams(fleetScenario, e.sz.agents, e.seed)
	if err != nil {
		return nil, err
	}
	srcA := netsim.Source(p)
	if n := strings.Count(srcA, exportRevA); n != p.Domains {
		return nil, fmt.Errorf("revision B would change %d of %d agent types", n, p.Domains)
	}
	srcB := strings.ReplaceAll(srcA, exportRevA, exportRevB)

	// Set-up: build and host the fleet (configs for the first revision,
	// one agent per target on an in-memory network), several times.
	ca, err := compileFacade("fleet-a.nmsl", srcA)
	if err != nil {
		return nil, err
	}
	var fleet *megafleet.Fleet
	var setup []float64
	for i := 0; i < max(1, e.sz.setupReps); i++ {
		if fleet != nil {
			fleet.Close()
			fleet = nil
		}
		runtime.GC()
		var err error
		t := time.Now()
		e.tr.do("megafleet.build", 0, false, func(int) {
			fleet, err = megafleet.New(ca.model, fmt.Sprintf("perfbench-%d-%d-%d", os.Getpid(), e.seed, i), fleetAdmin, e.seed)
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer fleet.Close()
	n := len(fleet.Targets)

	cb, err := compileFacade("fleet-b.nmsl", srcB)
	if err != nil {
		return nil, err
	}
	revs := []*revision{{name: "A", c: ca}, {name: "B", c: cb}}
	for _, r := range revs {
		if r.desired, err = desiredDigests(r.c, fleet.Targets); err != nil {
			return nil, err
		}
		r.drift = &driftLog{ids: map[string]bool{}}
		r.rec, err = reconcile.New(r.c.model, fleet.Targets,
			reconcile.WithSweepWorkers(fleetWorkers),
			reconcile.WithSeed(e.seed),
			reconcile.WithMetrics(obs.Disabled),
			reconcile.WithOnEvent(r.drift.event))
		if err != nil {
			return nil, err
		}
	}
	for _, tgt := range fleet.Targets {
		if revs[0].desired[tgt.InstanceID] == revs[1].desired[tgt.InstanceID] {
			return nil, fmt.Errorf("revision B leaves %s's configuration unchanged", tgt.InstanceID)
		}
	}
	tampered := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}, AdminCommunity: fleetAdmin}
	// Successive pushes tamper with successive slices of one seeded
	// permutation: an agent tampered with again in the next sweep of the
	// same reconciler would count as flapping, which is a different
	// workload.
	order := rand.New(rand.NewSource(e.seed)).Perm(n)
	per := int(float64(n) * tamperFrac)
	out.note("fleet-push: %s scenario, %d domains x %d systems = %d agents; tamper %.0f%% per push; %d rollout and %d sweep workers",
		fleetScenario, p.Domains, p.SystemsPerDomain, n, 100*tamperFrac, fleetWorkers, fleetWorkers)

	var rollouts, sweeps, traced, untraced []float64
	var roundtrips, retrans, configLoads, dupLoads, attempts []float64
	var allocKB, allocs []float64
	var checked, drifted, healed []float64
	var gcCycles, gcPause []float64
	budget := time.Duration(e.seconds * float64(time.Second))
	var failure error
	reps := repeatFor(budget, max(1, e.sz.minReps), func(i int) bool {
		rev := revs[i%2]
		tr := e.tr
		if tr != nil && i%2 == 0 {
			tr = nil // alternate so the overhead compares like with like
		}
		runtime.GC()
		loads0, req0, rt0 := agentCounters(fleet)
		// Allocation and GC are read around the rollout and the sweep
		// only, not the benchmark's own checks between them.
		var ms0, ms1, ms2, ms3 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}

		// Push: install the revision at every agent.
		root := tr.begin("fleet.push", 0, false)
		var roll *configgen.RolloutReport
		var err error
		t := time.Now()
		tr.do("configgen.rollout", root, false, func(int) {
			roll, err = configgen.DistributeContext(ctx, rev.c.model, fleet.Targets,
				configgen.WithWorkers(fleetWorkers),
				configgen.WithMetrics(obs.Disabled))
		})
		rollDur := time.Since(t)
		tr.end(root)
		if tr != nil {
			runtime.ReadMemStats(&ms1)
		}
		if err != nil {
			failure = err
			return false
		}
		loads1, req1, _ := agentCounters(fleet)
		out.Attempted += 3
		if !roll.OK() || roll.Installed != n {
			out.fail("push %d (%s): %s", i, rev.name, roll.Summary())
		}
		if u := unconverged(fleet, rev.desired); u != 0 {
			out.fail("push %d (%s): ground truth has %d of %d agents off the revision", i, rev.name, u, n)
		}
		once, dup := 0, 0
		for k := range loads1 {
			switch d := loads1[k] - loads0[k]; {
			case d == 1:
				once++
			case d > 1:
				dup++
			}
		}
		if once != n {
			out.fail("push %d (%s): %d agents loaded the config exactly once, %d more than once, want all %d once", i, rev.name, once, dup, n)
		}

		// Tamper with a seeded share of agents out of band, then sweep.
		want := map[string]bool{}
		lo := (i * per) % (n - n%max(1, per))
		for _, k := range order[lo : lo+per] {
			id := fleet.Targets[k].InstanceID
			fleet.Agents[id].ApplyConfig(tampered)
			want[id] = true
		}
		rev.drift.take()
		if tr != nil {
			runtime.ReadMemStats(&ms2)
		}
		root = tr.begin("fleet.heal", 0, false)
		var sw *reconcile.Sweep
		t = time.Now()
		tr.do("reconcile.sweep", root, false, func(int) { sw, err = rev.rec.RunOnce(ctx) })
		sweepDur := time.Since(t)
		tr.end(root)
		if err != nil {
			failure = err
			return false
		}
		if tr != nil {
			runtime.ReadMemStats(&ms3)
		}
		loads2, req2, rt2 := agentCounters(fleet)
		found, problems := rev.drift.take()
		for _, p := range problems {
			out.fail("sweep %d (%s): %s", i, rev.name, p)
		}
		out.Attempted += 3
		if sw.Checked != n || sw.Drifted != len(want) || sw.Healed != len(want) || !sameSet(found, want) {
			out.fail("sweep %d (%s): %s; drift events name %d agents, %d tampered (same set: %v)", i, rev.name, sw, len(found), len(want), sameSet(found, want))
		}
		if u := unconverged(fleet, rev.desired); u != 0 {
			out.fail("sweep %d (%s): %d agents still off the revision after healing", i, rev.name, u)
		}
		healLoads := 0
		for k := range loads2 {
			d := loads2[k] - loads1[k]
			if (want[fleet.Targets[k].InstanceID] && d != 2) || (!want[fleet.Targets[k].InstanceID] && d != 0) {
				healLoads++
			}
		}
		if healLoads != 0 {
			out.fail("sweep %d (%s): %d agents did not load exactly tamper+heal", i, rev.name, healLoads)
		}

		rollouts = append(rollouts, ms(rollDur))
		sweeps = append(sweeps, ms(sweepDur))
		if tr == nil {
			untraced = append(untraced, ms(rollDur+sweepDur))
			return true
		}
		traced = append(traced, ms(rollDur+sweepDur))
		rtrips := float64((req1 - req0) + (req2 - req1))
		roundtrips = append(roundtrips, rtrips)
		retrans = append(retrans, float64(rt2-rt0))
		allocKB = append(allocKB, float64(ms1.TotalAlloc-ms0.TotalAlloc+ms3.TotalAlloc-ms2.TotalAlloc)/1024/rtrips)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs+ms3.Mallocs-ms2.Mallocs)/rtrips)
		configLoads = append(configLoads, float64(sumDiff(loads1, loads0)))
		dupLoads = append(dupLoads, float64(dup))
		attempts = append(attempts, float64(roll.Attempts)/float64(n))
		checked = append(checked, float64(sw.Checked))
		drifted = append(drifted, float64(sw.Drifted))
		healed = append(healed, float64(sw.Healed))
		gcCycles = append(gcCycles, float64(ms1.NumGC-ms0.NumGC+ms3.NumGC-ms2.NumGC))
		gcPause = append(gcPause, float64(ms1.PauseTotalNs-ms0.PauseTotalNs+ms3.PauseTotalNs-ms2.PauseTotalNs)/1e6)
		return true
	})
	if failure != nil {
		return nil, failure
	}
	out.note("fleet-push: %d pushes; rollout ms per push: %s; sweep ms per push: %s", reps, fmtList(rollouts), fmtList(sweeps))

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.note("fleet-push: rollout_s %.4f (slowest %.4f), sweep_s %.4f (slowest %.4f)",
		median(rollouts)/1000, maxOf(rollouts)/1000, median(sweeps)/1000, maxOf(sweeps)/1000)
	out.set("setup_s", median(setup), "s")
	out.set("check_ms", median(sweeps), "ms")
	out.set("change_ms", median(rollouts), "ms")
	out.set("peak_rss_mb", rss, "MB")

	if e.tr != nil {
		zeroLayers(out)
		layerTimes(out, e.tr.finish())
		out.set("configgen.attempts_per_target", median(attempts), "count")
		out.set("snmp.roundtrips", median(roundtrips), "count")
		out.set("snmp.alloc_kb_per_roundtrip", median(allocKB), "kB")
		out.set("snmp.allocs_per_roundtrip", median(allocs), "count")
		out.set("snmp.retransmits", median(retrans), "count")
		out.set("agent.config_loads", median(configLoads), "count")
		out.set("agent.duplicate_loads", median(dupLoads), "count")
		out.set("reconcile.checked", median(checked), "count")
		out.set("reconcile.drifted", median(drifted), "count")
		out.set("reconcile.healed", median(healed), "count")
		out.set("runtime.gc_cycles", median(gcCycles), "count")
		out.set("runtime.gc_pause_ms", median(gcPause), "ms")
		out.set("trace.overhead_frac", median(traced)/median(untraced)-1, "frac")
	}
	return out, nil
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sumDiff(a, b []int64) int64 {
	var s int64
	for i := range a {
		s += a[i] - b[i]
	}
	return s
}
