package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
)

// The spec-cold internet: domains × coldSystems, nested coldDepth
// deep, a coldBadRate share of its pollers inconsistent. It is checked
// with checkWorkers workers, one per CPU of the reference machine.
const (
	coldSystems  = 2
	coldDepth    = 2
	coldBadRate  = 0.1
	checkWorkers = 2
)

func coldParams(domains int, seed int64) netsim.Params {
	return netsim.Params{
		Domains:           domains,
		SystemsPerDomain:  coldSystems,
		NestingDepth:      coldDepth,
		InconsistencyRate: coldBadRate,
		Seed:              seed,
	}
}

// specRep is one repetition's timings and outputs.
type specRep struct {
	// startup is a cold repetition's set-up: from starting the child
	// process until it has read the source file.
	startup          time.Duration
	verdict, configs time.Duration
	violations       int
	kindsOK          bool
	nconfigs         int
	agents           int
	digest           string
}

// specPass runs text → verdict → every agent config once. In traced
// mode the operation is one root span over the layer calls, with the
// lexer probe and a second (warm) check as separate roots around it.
func specPass(ctx context.Context, tr *tracer, src string, workers int) (*specRep, error) {
	lexProbe(tr, src)
	r := &specRep{}
	root := tr.begin("spec.configs", 0, false)
	start := time.Now()
	c, err := compile(tr, root, "internet.nmsl", src)
	if err != nil {
		return nil, err
	}
	rep, err := check(ctx, tr, root, "consistency.check_first", c.model, workers)
	if err != nil {
		return nil, err
	}
	r.verdict = time.Since(start)
	cfgs := generate(tr, root, c.model)
	r.configs = time.Since(start)
	tr.end(root)

	if tr != nil {
		if _, err := check(ctx, tr, 0, "consistency.check_again", c.model, workers); err != nil {
			return nil, err
		}
		tr.note("consistency.refs", float64(len(c.model.Refs)))
		tr.note("consistency.perms", float64(len(c.model.Perms)))
		tr.note("consistency.violations", float64(len(rep.Violations)))
		tr.note("configgen.configs", float64(len(cfgs)))
	}
	r.violations = len(rep.Violations)
	r.kindsOK = true
	for _, v := range rep.Violations {
		if v.Kind != consistency.KindFrequencyViolation {
			r.kindsOK = false
		}
	}
	r.nconfigs = len(cfgs)
	r.agents = agentInstances(c.model)
	r.digest, err = reportDigest(rep)
	return r, err
}

// passResult is what a cold child process reports for one pass.
type passResult struct {
	// LoadedUnixNS is the wall clock when the source file had been read.
	LoadedUnixNS int64   `json:"loaded_unix_ns"`
	VerdictNS    int64   `json:"verdict_ns"`
	ConfigsNS    int64   `json:"configs_ns"`
	Violations   int     `json:"violations"`
	KindsOK      bool    `json:"kinds_ok"`
	Configs      int     `json:"configs"`
	Agents       int     `json:"agents"`
	Digest       string  `json:"digest"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
}

// coldPass is the child side of a cold repetition: a fresh process
// compiles the file, checks it and generates every config, as
// nmslcheck followed by nmslgen would, and reports on stdout.
func coldPass(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	loaded := time.Now().UnixNano()
	r, err := specPass(context.Background(), nil, string(data), checkWorkers)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(passResult{
		LoadedUnixNS: loaded, VerdictNS: int64(r.verdict), ConfigsNS: int64(r.configs), Violations: r.violations,
		KindsOK: r.kindsOK, Configs: r.nconfigs, Agents: r.agents, Digest: r.digest, PeakRSSMB: rss,
	})
}

// runColdPass runs one repetition in a child process.
func runColdPass(path string) (*specRep, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, "-cold-pass", path)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	started := time.Now()
	data, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("cold pass: %w", err)
	}
	var pr passResult
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, 0, fmt.Errorf("cold pass output: %w", err)
	}
	return &specRep{
		startup: time.Duration(pr.LoadedUnixNS - started.UnixNano()),
		verdict: time.Duration(pr.VerdictNS), configs: time.Duration(pr.ConfigsNS),
		violations: pr.Violations, kindsOK: pr.KindsOK, nconfigs: pr.Configs, agents: pr.Agents, digest: pr.Digest,
	}, pr.PeakRSSMB, nil
}

// specWant is the independent reference a repetition is checked
// against: the generator's injected violation count, one config per
// agent instance (domains × systems), and the first repetition's
// report digest.
type specWant struct {
	violations, configs int
	digest              string
}

// checkSpecRep compares one repetition's outputs with the reference.
func checkSpecRep(out *outcome, i int, r *specRep, want specWant) {
	out.Attempted += 3
	if r.violations != want.violations || !r.kindsOK {
		out.fail("rep %d: verdict has %d violations (all frequency: %v), want %d frequency violations", i, r.violations, r.kindsOK, want.violations)
	}
	if r.nconfigs != want.configs || r.agents != want.configs {
		out.fail("rep %d: %d configs for %d agent instances, want %d", i, r.nconfigs, r.agents, want.configs)
	}
	if r.digest != want.digest {
		out.fail("rep %d: report digest %.12s differs from rep 0's %.12s", i, r.digest, want.digest)
	}
}

func runSpecCold(e *env) (*outcome, error) {
	p := coldParams(e.sz.coldDomains, e.seed)
	out := &outcome{}
	ctx := context.Background()
	src := netsim.Source(p)
	want := specWant{violations: netsim.ExpectedViolations(p), configs: p.Domains * coldSystems}
	out.note("spec-cold: %d domains x %d systems, depth %d, %.0f%% inconsistent: %.1f MB of source, expecting %d violations and %d configs",
		p.Domains, coldSystems, coldDepth, 100*coldBadRate, float64(len(src))/1e6, want.violations, want.configs)

	// Untraced repetitions each run in a fresh child process, cold as a
	// CLI invocation is. Traced ones run in-process, alternating with
	// untraced in-process ones so the overhead compares like with like.
	path := filepath.Join(e.workDir, "internet.nmsl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		return nil, err
	}
	var startups, verdicts, configs, rss []float64
	var traced, untraced []float64
	var gcCycles, gcPause []float64
	budget := time.Duration(e.seconds * float64(time.Second))
	var failure error
	reps := repeatFor(budget, max(1, e.sz.minReps), func(i int) bool {
		var r *specRep
		var err error
		tr := e.tr
		switch {
		case tr == nil:
			var peak float64
			r, peak, err = runColdPass(path)
			if err == nil {
				rss = append(rss, peak)
				startups = append(startups, ms(r.startup))
			}
		case i%2 == 0:
			runtime.GC()
			if r, err = specPass(ctx, nil, src, checkWorkers); err == nil {
				untraced = append(untraced, ms(r.configs))
			}
		default:
			runtime.GC()
			before := readGC()
			if r, err = specPass(ctx, tr, src, checkWorkers); err == nil {
				cy, pa := readGC().since(before)
				gcCycles = append(gcCycles, cy)
				gcPause = append(gcPause, pa)
				traced = append(traced, ms(r.configs))
			}
		}
		if err != nil {
			failure = err
			return false
		}
		verdicts = append(verdicts, ms(r.verdict))
		configs = append(configs, ms(r.configs))

		if i == 0 {
			want.digest = r.digest
		}
		checkSpecRep(out, i, r, want)
		return true
	})
	if failure != nil {
		return nil, failure
	}
	out.note("spec-cold: %d repetitions, report digest %.16s; text→configs ms per repetition: %s", reps, want.digest, fmtList(configs))
	out.note("spec-cold: verdict_s %.4f (slowest %.4f), configs_s %.4f (slowest %.4f)",
		median(verdicts)/1000, maxOf(verdicts)/1000, median(configs)/1000, maxOf(configs)/1000)
	if e.tr == nil {
		out.note("spec-cold: child start-up and source load ms per repetition: %s", fmtList(startups))
		out.set("setup_s", median(startups)/1000, "s")
		out.set("check_ms", median(verdicts), "ms")
		out.set("change_ms", median(configs), "ms")
		out.set("peak_rss_mb", median(rss), "MB")
		return out, nil
	}

	zeroLayers(out)
	agg := e.tr.finish()
	layerTimes(out, agg)
	out.set("lexer.tokens", e.tr.noted("lexer.tokens"), "count")
	out.set("parser.decls", e.tr.noted("parser.decls"), "count")
	for _, n := range []string{"consistency.refs", "consistency.perms", "consistency.violations", "configgen.configs"} {
		out.set(n, e.tr.noted(n), "count")
	}
	out.set("runtime.gc_cycles", median(gcCycles), "count")
	out.set("runtime.gc_pause_ms", median(gcPause), "ms")
	out.set("trace.overhead_frac", median(traced)/median(untraced)-1, "frac")
	out.note("spec-cold: traced %d reps, untraced %d; share of operation time outside layer spans: %.4f",
		len(traced), len(untraced), e.tr.rootSelfFrac())
	return out, nil
}
