// benchguard compares a fresh benchmark run against the committed
// baseline (BENCH_5.json and successors) and fails when a guarded
// benchmark regresses beyond the tolerance — in time (ns/op) or in
// allocation (allocs/op, B/op). It reads the JSON documents produced by
// scripts/bench2json; with -count > 1 the same benchmark appears
// several times and the minimum of each metric is used on both sides,
// which discounts scheduler noise without hiding real regressions.
//
// Allocation counts are near-deterministic, so they are compared with
// the same fractional tolerance plus half an allocation of slack: a
// zero-alloc baseline stays an exact zero-alloc requirement, while
// counting baselines absorb ±0 jitter from map growth. Entries without
// -benchmem fields (both sides zero) skip the allocation comparison.
//
// Benchmark timings only compare within one machine class, so ns/op is
// compared only with baseline entries recorded on the current run's CPU:
// the document's cpu, or the entry's own cpu field when a baseline holds
// samples from more than one host. Allocation counts do not depend on
// the machine for a pinned Go version, so a guarded benchmark with no
// baseline from the current CPU still has its allocs/op and B/op
// compared, against the minimum baseline sample from any host; only its
// ns/op goes unchecked. When the baseline holds nothing from the current
// CPU at all the guard says so, and still fails on a memory regression.
//
// Usage:
//
//	go run ./scripts/benchguard -baseline BENCH_5.json -current BENCH_guard.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Benchmark and Document mirror the fields of scripts/bench2json that
// the guard consumes.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// CPU names the host the entry was recorded on when it is not the
	// document's.
	CPU string `json:"cpu,omitempty"`
}

type Document struct {
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// host returns the CPU the entry b of d was recorded on.
func (d *Document) host(b *Benchmark) string {
	if b.CPU != "" {
		return b.CPU
	}
	return d.CPU
}

// recordedOn reports whether any entry of d was recorded on cpu.
func (d *Document) recordedOn(cpu string) bool {
	if d.CPU == cpu {
		return true
	}
	for i := range d.Benchmarks {
		if d.Benchmarks[i].CPU == cpu {
			return true
		}
	}
	return false
}

// sample is the per-side minimum of each guarded metric.
type sample struct {
	ns     float64
	bytes  float64
	allocs float64
	// memOK reports whether any entry carried -benchmem fields; without
	// them bytes/allocs are parser zeros, not measurements.
	memOK bool
	ok    bool
}

// result is one guarded benchmark's verdict.
type result struct {
	name      string
	base, cur sample
	// timed reports whether base was recorded on the current CPU, so
	// that ns/op was compared; otherwise base is the any-host minimum
	// and only allocations were.
	timed   bool
	delta   float64 // (cur-base)/base over ns/op
	status  string  // "ok", "regression", "improvement", "allocs-ok", "no-baseline", ...
	memNote string  // non-empty when an allocation metric regressed
}

// minSample returns the per-metric minimum over every multi-iteration
// entry named name recorded on cpu, or on any host when cpu is "".
// Single-iteration entries come from the -benchtime=1x smoke sweep,
// where warmup effects dominate; mixing them into a min would bias the
// comparison, so they are skipped.
func minSample(d *Document, name, cpu string) sample {
	var s sample
	for _, b := range d.Benchmarks {
		if b.Name != name || b.NsPerOp <= 0 || b.Iterations < 2 || cpu != "" && d.host(&b) != cpu {
			continue
		}
		if !s.ok {
			s = sample{ns: b.NsPerOp, bytes: b.BytesPerOp, allocs: b.AllocsPerOp, ok: true}
		} else {
			if b.NsPerOp < s.ns {
				s.ns = b.NsPerOp
			}
			if b.BytesPerOp < s.bytes {
				s.bytes = b.BytesPerOp
			}
			if b.AllocsPerOp < s.allocs {
				s.allocs = b.AllocsPerOp
			}
		}
		if b.AllocsPerOp > 0 || b.BytesPerOp > 0 {
			s.memOK = true
		}
	}
	return s
}

// memRegressed reports whether cur exceeds base by more than the
// fractional tolerance plus half a unit (so a 0 baseline demands an
// exact 0, and integer counting metrics absorb rounding).
func memRegressed(base, cur, tol float64) bool {
	return cur > base*(1+tol)+0.5
}

// memCheck fails r when an allocation metric of cur exceeds base beyond
// tol. It only judges when both sides actually measured memory
// (-benchmem on both runs) and reports whether it did.
func memCheck(r *result, tol float64) bool {
	b, c := r.base, r.cur
	if !b.memOK || !c.memOK {
		return false
	}
	if memRegressed(b.allocs, c.allocs, tol) {
		r.memNote = fmt.Sprintf("allocs/op %.1f -> %.1f", b.allocs, c.allocs)
		r.status = "regression"
	} else if memRegressed(b.bytes, c.bytes, tol) {
		r.memNote = fmt.Sprintf("B/op %.0f -> %.0f", b.bytes, c.bytes)
		r.status = "regression"
	}
	return true
}

// compare evaluates the guarded benchmarks. A non-empty note means the
// baseline holds nothing from the current CPU, so no ns/op was compared.
// failed reports a regression beyond tol, or a guarded benchmark missing
// from the current run.
func compare(base, cur *Document, names []string, tol float64) (results []result, failed bool, note string) {
	if !base.recordedOn(cur.CPU) {
		note = fmt.Sprintf("baseline CPU %q != current CPU %q; cross-machine timings do not compare, allocations still do", base.CPU, cur.CPU)
	}
	for _, name := range names {
		c := minSample(cur, name, cur.CPU)
		if !c.ok {
			results = append(results, result{name: name, status: "missing from current run"})
			failed = true
			continue
		}
		r := result{name: name, cur: c, base: minSample(base, name, cur.CPU)}
		if r.base.ok {
			r.timed = true
			r.delta = (c.ns - r.base.ns) / r.base.ns
			switch {
			case r.delta > tol:
				r.status = "regression"
			case r.delta < -tol:
				r.status = "improvement"
			default:
				r.status = "ok"
			}
			memCheck(&r, tol)
		} else {
			r.base = minSample(base, name, "")
			r.status = "allocs-ok"
			if !memCheck(&r, tol) {
				r.base, r.status = sample{}, "no-baseline"
			}
		}
		if r.status == "regression" {
			failed = true
		}
		results = append(results, r)
	}
	return results, failed, note
}

func render(results []result, tol float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %14s %14s %8s %12s  %s\n", "benchmark", "baseline ns/op", "current ns/op", "delta", "allocs/op", "verdict")
	for _, r := range results {
		baseNs, delta, allocs := "-", "-", "-"
		if r.timed {
			baseNs, delta = fmt.Sprintf("%.0f", r.base.ns), fmt.Sprintf("%+.1f%%", 100*r.delta)
		}
		if r.base.ok {
			allocs = fmt.Sprintf("%.0f->%.0f", r.base.allocs, r.cur.allocs)
		}
		verdict := r.status
		if r.memNote != "" {
			verdict += " (" + r.memNote + ")"
		}
		fmt.Fprintf(&sb, "%-32s %14s %14.0f %8s %12s  %s\n", r.name, baseNs, r.cur.ns, delta, allocs, verdict)
	}
	fmt.Fprintf(&sb, "tolerance: +-%.0f%% (ns/op, allocs/op, B/op)\n", 100*tol)
	return sb.String()
}

func load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_5.json", "committed baseline document (bench2json format)")
	current := flag.String("current", "BENCH_guard.json", "fresh run to compare (bench2json format)")
	tol := flag.Float64("tolerance", 0.20, "allowed fractional drift before failing")
	bench := flag.String("bench",
		"CheckParallel1,CheckParallel8,CheckWarmCache,ChangeContractCheck,CheckDomains10000,CheckParallel10k1,CheckParallel10k8,ConfigGen10k,MemAgentRoundTrip,MegaFleetInstall,CompileDomains1000,CompilePaperSpec,CheckDomains100k,CheckDomains100kWarmDelta,MegaFleetInstall25k",
		"comma-separated guarded benchmark names (bench2json names, no Benchmark prefix)")
	flag.Parse()

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
	names := strings.Split(*bench, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	results, failed, note := compare(base, cur, names, *tol)
	if note != "" {
		fmt.Printf("benchguard: %s\n", note)
	}
	fmt.Print(render(results, *tol))
	if failed {
		fmt.Println("benchguard: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchguard: ok")
}
