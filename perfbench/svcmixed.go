package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
)

// The svc-mixed tenants have svcSystems systems per domain, nested
// svcDepth deep, with a svcBadRate share of inconsistent pollers. An
// editFrac share of requests are edits, the rest reads; they travel
// over svcConns connections.
const (
	svcSystems = 4
	svcDepth   = 1
	svcBadRate = 0.1
	editFrac   = 0.1
	svcConns   = 2
	// The latency limits apply to each kind's tail: the highest whole
	// percentile that keeps at least 10 samples beyond it (tailQuantile).
	readTailLimitMS = 100
	editTailLimitMS = 250
	// A traced run spends this share of its time at the offered rate
	// and the rest replaying the schedule in-process.
	tracedFixedShare = 0.6
	// replayWorkers matches nmsld's default worker pool per check.
	replayWorkers = 1
)

type reqKind int

const (
	readCheck reqKind = iota // POST check
	readDelta                // POST delta-check on an unchanged tenant
	editSpec                 // PUT a one-poller flip, then POST delta-check
)

// svcReq is one scheduled request: due is its offset from the phase
// start.
type svcReq struct {
	due    time.Duration
	kind   reqKind
	tenant int
	domain int
}

// mixBlock is the unit the request mix is dealt in: every block of 20
// holds the configured share of edits and splits the rest evenly
// between full checks and delta-checks.
const mixBlock = 20

func blockKinds(editFrac float64) []reqKind {
	edits := int(math.Round(mixBlock * editFrac))
	kinds := make([]reqKind, 0, mixBlock)
	for i := 0; i < mixBlock; i++ {
		switch {
		case i < edits:
			kinds = append(kinds, editSpec)
		case i < edits+(mixBlock-edits)/2:
			kinds = append(kinds, readCheck)
		default:
			kinds = append(kinds, readDelta)
		}
	}
	return kinds
}

// balancedUnit is the smallest request count in which every kind
// visits every tenant equally often: schedules whose length is a
// multiple of it offer the same (kind, tenant) multiset for every seed,
// which matters because a request's cost grows with its tenant's size.
func balancedUnit(tenants int, editFrac float64) int {
	count := map[reqKind]int{}
	for _, k := range blockKinds(editFrac) {
		count[k]++
	}
	blocks := 1
	for _, c := range count {
		blocks = lcm(blocks, tenants/gcd(c, tenants))
	}
	return mixBlock * blocks
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// schedule deals n requests due evenly at rate, a constant-rate open
// loop. Kinds come in shuffled blocks of the configured mix, and each
// kind visits the tenants in its own stream of shuffled rounds, so
// with n a multiple of balancedUnit two seeds offer the same work in a
// different order.
// The seed decides which request is due when, and which poller an edit
// flips.
func schedule(rng *rand.Rand, rate float64, n int, tenants []*svcTenant, editFrac float64) []svcReq {
	kinds := blockKinds(editFrac)
	rounds := map[reqKind][]int{}
	next := func(k reqKind) int {
		if len(rounds[k]) == 0 {
			rounds[k] = rng.Perm(len(tenants))
		}
		t := rounds[k][0]
		rounds[k] = rounds[k][1:]
		return t
	}
	out := make([]svcReq, n)
	for i := range out {
		if i%mixBlock == 0 {
			rng.Shuffle(mixBlock, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		r := svcReq{kind: kinds[i%mixBlock]}
		r.due = time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
		r.tenant = next(r.kind)
		if r.kind == editSpec {
			r.domain = rng.Intn(tenants[r.tenant].p.Domains)
		}
		out[i] = r
	}
	return out
}

// tenantParams sizes the tenants evenly from minDomains to maxDomains,
// in an order the seed shuffles, so every seed holds the same total.
func tenantParams(sz sizes, seed int64) []netsim.Params {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]netsim.Params, sz.tenants)
	for i, k := range rng.Perm(sz.tenants) {
		domains := sz.minDomains
		if sz.tenants > 1 {
			domains += k * (sz.maxDomains - sz.minDomains) / (sz.tenants - 1)
		}
		ps[i] = netsim.Params{
			Domains:           domains,
			SystemsPerDomain:  svcSystems,
			NestingDepth:      svcDepth,
			InconsistencyRate: svcBadRate,
			Seed:              seed*1000 + int64(i),
		}
	}
	return ps
}

func newTenants(ps []netsim.Params) ([]*svcTenant, error) {
	ts := make([]*svcTenant, len(ps))
	for i, p := range ps {
		t, err := newSvcTenant(fmt.Sprintf("t%02d", i), p)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return ts, nil
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	mu        sync.Mutex
	readLat   []float64 // ms, from due time to verdict
	checkLat  []float64 // the full-check reads among readLat
	deltaLat  []float64 // the delta-check reads among readLat
	editLat   []float64 // ms, from due time to the edit's verdict
	late      []float64 // ms the generator sent after the due time
	server    []float64 // ms, a full-check read's duration_ns
	wire      []float64 // ms, a full-check read's send→answer time minus duration_ns
	putMS     []float64
	deltaMS   []float64 // the delta-check following a PUT, send→answer
	attempted int
	failed    int
	refused   int
	failures  []string
	backlog   int // requests still waiting when the schedule ended
	elapsed   time.Duration
	cacheSeen bool
	cacheLo   map[string][2]int64 // tenant → first (hits, misses) seen
	cacheHi   map[string][2]int64 // tenant → last
}

func (r *loadResult) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	var se *statusError
	if errors.As(err, &se) && se.refused() {
		r.refused++
	}
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *loadResult) cache(tenant string, cr *checkResp) {
	if cr.Cache == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cacheSeen = true
	v := [2]int64{cr.Cache.Hits, cr.Cache.Misses}
	if _, ok := r.cacheLo[tenant]; !ok {
		r.cacheLo[tenant] = v
	}
	r.cacheHi[tenant] = v
}

// drive runs sched open loop: a dispatcher releases each request at
// its due time into a queue that svcConns workers drain, one
// connection each. Latency counts from the due time, so a stall shows up in the
// requests queued behind it.
func drive(ctx context.Context, cl *apiClient, tr *tracer, tenants []*svcTenant, sched []svcReq) *loadResult {
	res := &loadResult{cacheLo: map[string][2]int64{}, cacheHi: map[string][2]int64{}}
	queue := make(chan int, len(sched)) // sized to the number of sends
	start := time.Now()
	go func() {
		defer close(queue)
		for i, r := range sched {
			if d := time.Until(start.Add(r.due)); d > 0 {
				time.Sleep(d)
			}
			queue <- i
		}
		res.mu.Lock()
		res.backlog = len(queue)
		res.mu.Unlock()
	}()
	var wg sync.WaitGroup
	for w := 0; w < svcConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := sched[i]
				res.mu.Lock()
				res.attempted++
				res.mu.Unlock()
				due := start.Add(r.due)
				late := ms(time.Since(due))
				lat, err := serve(ctx, cl, tr, tenants[r.tenant], r, res)
				if err != nil {
					res.fail(err)
					continue
				}
				total := ms(time.Since(due))
				res.mu.Lock()
				res.late = append(res.late, late)
				if r.kind == editSpec {
					res.editLat = append(res.editLat, total)
				} else {
					res.readLat = append(res.readLat, total)
					if r.kind == readCheck {
						res.checkLat = append(res.checkLat, total)
						res.server = append(res.server, lat.server)
						res.wire = append(res.wire, lat.wire)
					} else {
						res.deltaLat = append(res.deltaLat, total)
					}
				}
				res.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

type reqTimes struct{ server, wire float64 }

// serve performs one scheduled request and checks its verdict.
func serve(ctx context.Context, cl *apiClient, tr *tracer, t *svcTenant, r svcReq, res *loadResult) (reqTimes, error) {
	if r.kind != editSpec {
		name := "service.check"
		if r.kind == readDelta {
			name = "service.delta_check"
		}
		var cr *checkResp
		var err error
		sent := time.Now()
		tr.do(name, 0, false, func(int) { cr, err = cl.check(ctx, t.id, r.kind == readDelta) })
		took := ms(time.Since(sent))
		if err != nil {
			return reqTimes{}, err
		}
		res.cache(t.id, cr)
		server := float64(cr.DurationNS) / 1e6
		return reqTimes{server, took - server}, t.verify(cr.Generation, cr.Report.Consistent, len(cr.Report.Violations))
	}

	t.edit.Lock()
	defer t.edit.Unlock()
	text, err := t.flip(r.domain)
	if err != nil {
		return reqTimes{}, err
	}
	gen := t.predict()
	body, err := specBody(t.id+".nmsl", text)
	if err != nil {
		return reqTimes{}, err
	}
	root := tr.begin("svc.edit", 0, false)
	defer tr.end(root)
	var sr *specResp
	sent := time.Now()
	tr.do("service.put", root, false, func(int) { sr, err = cl.put(ctx, t.id, body) })
	putMS := ms(time.Since(sent))
	if err != nil {
		return reqTimes{}, err
	}
	if sr.Generation != gen {
		return reqTimes{}, fmt.Errorf("tenant %s: PUT acknowledged generation %d, predicted %d", t.id, sr.Generation, gen)
	}
	var cr *checkResp
	sent = time.Now()
	tr.do("service.delta_after_edit", root, false, func(int) { cr, err = cl.check(ctx, t.id, true) })
	deltaMS := ms(time.Since(sent))
	if err != nil {
		return reqTimes{}, err
	}
	res.cache(t.id, cr)
	res.mu.Lock()
	res.putMS = append(res.putMS, putMS)
	res.deltaMS = append(res.deltaMS, deltaMS)
	res.mu.Unlock()
	if cr.Generation != gen {
		return reqTimes{}, fmt.Errorf("tenant %s: delta-check after PUT answered generation %d, want %d", t.id, cr.Generation, gen)
	}
	return reqTimes{}, t.verify(cr.Generation, cr.Report.Consistent, len(cr.Report.Violations))
}

// checkAll checks every tenant over svcConns connections and verifies
// the verdicts.
func checkAll(ctx context.Context, cl *apiClient, tenants []*svcTenant) error {
	errs := make(chan error, len(tenants)) // one result per tenant
	next := make(chan *svcTenant, len(tenants))
	for _, t := range tenants {
		next <- t
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < svcConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				cr, err := cl.check(ctx, t.id, false)
				if err == nil {
					err = t.verify(cr.Generation, cr.Report.Consistent, len(cr.Report.Violations))
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runSvcMixed(e *env) (*outcome, error) {
	sz := e.sz
	out := &outcome{}
	ctx := context.Background()
	tenants, err := newTenants(tenantParams(sz, e.seed))
	if err != nil {
		return nil, err
	}
	domains := 0
	for _, t := range tenants {
		domains += t.p.Domains
	}
	out.note("svc-mixed: %d tenants, %d domains x %d systems in all; %.0f%% edits; offered %.0f rps over %d connections; tail limits read %d ms, edit %d ms",
		len(tenants), domains, svcSystems, 100*editFrac, sz.offeredRPS, svcConns, readTailLimitMS, editTailLimitMS)

	// Install every tenant on a fresh daemon, check each once, and stop
	// it so its state is persisted.
	state := filepath.Join(e.workDir, "state")
	d, err := startDaemon(e.nmsldBin, state, false, e.log)
	if err != nil {
		return nil, err
	}
	cl := newAPIClient(d.base, svcConns)
	for _, t := range tenants {
		body, err := specBody(t.id+".nmsl", t.src)
		if err != nil {
			d.kill()
			return nil, err
		}
		gen := t.predict()
		sr, err := cl.put(ctx, t.id, body)
		if err == nil && sr.Generation != gen {
			err = fmt.Errorf("tenant %s: first PUT acknowledged generation %d", t.id, sr.Generation)
		}
		if err != nil {
			d.kill()
			return nil, err
		}
	}
	err = checkAll(ctx, cl, tenants)
	cl.close()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Set-up: restart over the persisted state until every tenant's
	// first check has answered, several times.
	var setup []float64
	reps := max(1, sz.setupReps)
	for i := 0; i < reps; i++ {
		last := i == reps-1
		t0 := time.Now()
		d, err = startDaemon(e.nmsldBin, state, e.tr != nil && last, e.log)
		if err != nil {
			return nil, err
		}
		cl = newAPIClient(d.base, svcConns)
		err = checkAll(ctx, cl, tenants)
		setup = append(setup, time.Since(t0).Seconds())
		out.Attempted += len(tenants)
		if err != nil {
			out.fail("restart %d: %v", i, err)
		}
		if !last {
			cl.close()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		cl.close()
		if err := d.stop(); err != nil {
			fmt.Fprintln(e.log, "perfbench: stopping nmsld:", err)
		}
	}()

	// Main phase: the fixed offered rate, for the whole measured time
	// of an untraced run.
	fixedSeconds := e.seconds
	if e.tr != nil {
		fixedSeconds *= tracedFixedShare
	}
	rng := rand.New(rand.NewSource(e.seed))
	unit := balancedUnit(len(tenants), editFrac)
	n := int(fixedSeconds*sz.offeredRPS) / unit * unit
	if n == 0 {
		return nil, fmt.Errorf("svc-mixed: %.1fs at %.0f rps is less than one balanced unit of %d requests", fixedSeconds, sz.offeredRPS, unit)
	}
	sched := schedule(rng, sz.offeredRPS, n, tenants, editFrac)
	gc0c, gc0p := d.gcCycles.Load(), d.gcPauseUS.Load()
	fixed := drive(ctx, cl, e.tr, tenants, sched)
	gcCycles, gcPauseMS := float64(d.gcCycles.Load()-gc0c), float64(d.gcPauseUS.Load()-gc0p)/1000
	merge(out, "fixed rate", fixed)
	out.note("svc-mixed: fixed %.0f rps for %.1fs: %d reads, %d edits, backlog at end %d, late p99 %.2f ms",
		sz.offeredRPS, fixed.elapsed.Seconds(), len(fixed.readLat), len(fixed.editLat), fixed.backlog, quantile(fixed.late, 0.99))

	if e.tr == nil {
		rss, err := peakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rq, eq := tailQuantile(len(fixed.readLat)), tailQuantile(len(fixed.editLat))
		readTail, editTail := quantile(fixed.readLat, rq), quantile(fixed.editLat, eq)
		out.note("svc-mixed: restart s: %s", fmtList(setup))
		out.note("svc-mixed: read_p50_ms %.3f (check %.3f, delta-check %.3f), read_p%.0f_ms %.3f (%d reads), edit_p50_ms %.3f, edit_p%.0f_ms %.3f (%d edits); tail limits met: %v",
			quantile(fixed.readLat, 0.5), quantile(fixed.checkLat, 0.5), quantile(fixed.deltaLat, 0.5), 100*rq, readTail, len(fixed.readLat),
			quantile(fixed.editLat, 0.5), 100*eq, editTail, len(fixed.editLat),
			readTail <= readTailLimitMS && editTail <= editTailLimitMS)
		out.set("setup_s", median(setup), "s")
		// Request costs spread with tenant size (50 to 400 domains), so
		// the median of a few dozen edits jumps between neighbouring
		// tenants; the trimmed mean over the balanced mix does not.
		out.set("check_ms", trimmedMean(fixed.checkLat, svcTrim), "ms")
		out.set("change_ms", trimmedMean(fixed.editLat, svcTrim), "ms")
		out.set("peak_rss_mb", rss, "MB")
		return out, nil
	}

	zeroLayers(out)
	out.set("service.read_server_ms", median(fixed.server), "ms")
	out.set("service.read_wire_ms", median(fixed.wire), "ms")
	out.set("service.put_ms", median(fixed.putMS), "ms")
	out.set("service.delta_after_edit_ms", median(fixed.deltaMS), "ms")
	out.set("service.refused", float64(fixed.refused), "count")
	out.set("service.read_tail_ms", quantile(fixed.readLat, tailQuantile(len(fixed.readLat))), "ms")
	out.set("service.edit_tail_ms", quantile(fixed.editLat, tailQuantile(len(fixed.editLat))), "ms")
	if fixed.cacheSeen {
		var hits, misses int64
		for id, hi := range fixed.cacheHi {
			lo := fixed.cacheLo[id]
			hits += hi[0] - lo[0]
			misses += hi[1] - lo[1]
		}
		out.set("consistency.cache_hits", float64(hits), "count")
		out.set("consistency.cache_misses", float64(misses), "count")
	} else {
		out.note("svc-mixed: responses carry no cache statistics; cache metrics read 0")
	}
	out.set("runtime.gc_cycles", gcCycles, "count")
	out.set("runtime.gc_pause_ms", gcPauseMS, "ms")
	out.set("loadgen.late_p99_ms", quantile(fixed.late, 0.99), "ms")
	out.set("loadgen.achieved_rps", float64(len(fixed.readLat)+len(fixed.editLat))/fixed.elapsed.Seconds(), "1/s")

	// In-process replay of the same schedule through the layers the
	// daemon calls, untraced and then traced over the same requests.
	ps := tenantParams(sz, e.seed)
	rest := time.Duration(e.seconds * (1 - tracedFixedShare) * float64(time.Second))
	n, plain, err := replay(ctx, nil, ps, sched, -1, rest/2, out)
	if err != nil {
		return nil, err
	}
	_, traced, err := replay(ctx, e.tr, ps, sched, n, 0, out)
	if err != nil {
		return nil, err
	}
	layerTimes(out, e.tr.finish())
	out.set("lexer.tokens", e.tr.noted("lexer.tokens"), "count")
	out.set("parser.decls", e.tr.noted("parser.decls"), "count")
	for _, name := range []string{"consistency.refs", "consistency.perms", "consistency.violations"} {
		out.set(name, e.tr.noted(name), "count")
	}
	out.set("trace.overhead_frac", traced.Seconds()/plain.Seconds()-1, "frac")
	out.note("svc-mixed: replayed %d requests in-process: %.0f ms untraced, %.0f ms traced; share of operation time outside layer spans: %.4f",
		n, ms(plain), ms(traced), e.tr.rootSelfFrac())
	return out, nil
}

// svcTrim is the share of fastest and of slowest requests the
// service's latency means leave out: the interquartile mean. It drops
// edits that queued behind another edit and reads caught in a burst of
// CPU stolen from the virtual machine; on a shared host a 10%-trimmed
// mean moved about a third more from run to run.
const svcTrim = 0.25

// tailQuantile is the highest whole percentile of n samples that keeps
// at least 10 of them beyond it (the median when n is too small).
func tailQuantile(n int) float64 {
	q := math.Floor(100*(1-10/float64(max(n, 1)))) / 100
	return max(q, 0.5)
}

// merge folds a phase's request counts and failures into the outcome.
func merge(out *outcome, phase string, r *loadResult) {
	out.Attempted += r.attempted
	for _, f := range r.failures {
		out.fail("%s: %s", phase, f)
	}
	if extra := r.failed - len(r.failures); extra > 0 {
		out.Failed += extra
	}
}

// replayTenant is one tenant's in-process state during a replay.
type replayTenant struct {
	t    *svcTenant
	c    *compiled
	last *consistency.Report
}

// replay runs sched's requests in order, in-process, through the layer
// calls nmsld makes for them: compile, DiffSpecs, CheckDelta or a full
// check, and the report's api/v1 JSON. It stops after limit requests
// (limit < 0: when budget is spent) and returns how many ran and how
// long they took, install excluded.
func replay(ctx context.Context, tr *tracer, ps []netsim.Params, sched []svcReq, limit int, budget time.Duration, out *outcome) (int, time.Duration, error) {
	tenants, err := newTenants(ps)
	if err != nil {
		return 0, 0, err
	}
	state := make([]*replayTenant, len(tenants))
	for i, t := range tenants {
		root := tr.begin("svc.install", 0, false)
		c, err := compile(tr, root, t.id+".nmsl", t.src)
		if err != nil {
			return 0, 0, err
		}
		rep, err := check(ctx, tr, root, "consistency.check_first", c.model, replayWorkers)
		if err != nil {
			return 0, 0, err
		}
		tr.end(root)
		tr.note("consistency.refs", float64(len(c.model.Refs)))
		tr.note("consistency.perms", float64(len(c.model.Perms)))
		state[i] = &replayTenant{t: t, c: c, last: rep}
	}
	start := time.Now()
	n := 0
	for _, r := range sched {
		if (limit >= 0 && n >= limit) || (limit < 0 && n > 0 && time.Since(start) >= budget) {
			break
		}
		st := state[r.tenant]
		var rep *consistency.Report
		switch r.kind {
		case readCheck:
			root := tr.begin("svc.read_check", 0, false)
			rep, err = check(ctx, tr, root, "consistency.check_again", st.c.model, replayWorkers)
			if err == nil {
				err = encode(tr, root, rep)
			}
			tr.end(root)
		case readDelta:
			root := tr.begin("svc.read_delta", 0, false)
			rep = checkDelta(tr, root, st.c.model, st.last, &consistency.ModelDelta{})
			err = encode(tr, root, rep)
			tr.end(root)
		case editSpec:
			var text string
			if text, err = st.t.flip(r.domain); err != nil {
				break
			}
			lexProbe(tr, text)
			root := tr.begin("svc.edit", 0, false)
			var c *compiled
			if c, err = compile(tr, root, st.t.id+".nmsl", text); err != nil {
				tr.end(root)
				break
			}
			var delta *consistency.ModelDelta
			tr.do("sema.diff", root, false, func(int) { delta = consistency.DeltaFromSpecs(st.c.spec, c.spec) })
			rep = checkDelta(tr, root, c.model, st.last, delta)
			err = encode(tr, root, rep)
			tr.end(root)
			st.c = c
		}
		if err != nil {
			return 0, 0, err
		}
		st.last = rep
		tr.note("consistency.violations", float64(len(rep.Violations)))
		out.Attempted++
		if want := st.t.violations(); len(rep.Violations) != want {
			out.fail("replay request %d (tenant %s): %d violations, predicted %d", n, st.t.id, len(rep.Violations), want)
		}
		n++
	}
	return n, time.Since(start), nil
}

// checkDelta re-checks m after an edit described by delta, replaying
// prev's verdicts for untouched references, as nmsld's delta-check
// does. The column seeding the daemon's path performs is applied when
// the model offers it.
func checkDelta(tr *tracer, parent int, m *consistency.Model, prev *consistency.Report, delta *consistency.ModelDelta) *consistency.Report {
	var rep *consistency.Report
	tr.do("consistency.delta", parent, true, func(int) {
		if s, ok := any(m).(interface {
			SeedColumnsFrom(*consistency.Model, *consistency.ModelDelta)
		}); ok && prev != nil {
			s.SeedColumnsFrom(prev.Model, delta)
		}
		rep = consistency.NewChecker(m).CheckDelta(prev, delta)
	})
	return rep
}

// encode renders a report as the daemon's api/v1 JSON.
func encode(tr *tracer, parent int, rep *consistency.Report) error {
	var err error
	tr.do("apiv1.encode", parent, false, func(int) { _, err = json.Marshal(apiv1.FromReport(rep)) })
	return err
}
