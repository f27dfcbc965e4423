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
// Benchmark timings only compare within one machine class, so a baseline
// entry is compared only with a current run on the CPU it was recorded
// on: the document's cpu, or the entry's own cpu field when a baseline
// holds samples from more than one host. A guarded benchmark with no
// entry from the current CPU reports no-baseline, and when the baseline
// holds nothing from the current CPU at all the guard prints a warning
// and exits 0 rather than failing on hardware drift.
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
	delta     float64 // (cur-base)/base over ns/op
	status    string  // "ok", "regression", "improvement", "no-baseline", ...
	memNote   string  // non-empty when an allocation metric regressed
}

// minSample returns the per-metric minimum over every multi-iteration
// entry named name recorded on cpu. Single-iteration entries come from the
// -benchtime=1x smoke sweep, where warmup effects dominate; mixing them
// into a min would bias the comparison, so they are skipped.
func minSample(d *Document, name, cpu string) sample {
	var s sample
	for _, b := range d.Benchmarks {
		if b.Name != name || b.NsPerOp <= 0 || b.Iterations < 2 || d.host(&b) != cpu {
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

// compare evaluates the guarded benchmarks. A non-empty skip string
// means the comparison is meaningless (different hardware) and the
// caller should exit 0. failed reports a regression beyond tol, or a
// guarded benchmark missing from the current run.
func compare(base, cur *Document, names []string, tol float64) (results []result, failed bool, skip string) {
	if !base.recordedOn(cur.CPU) {
		return nil, false, fmt.Sprintf("baseline CPU %q != current CPU %q; cross-machine timings do not compare", base.CPU, cur.CPU)
	}
	for _, name := range names {
		c := minSample(cur, name, cur.CPU)
		if !c.ok {
			results = append(results, result{name: name, status: "missing from current run"})
			failed = true
			continue
		}
		b := minSample(base, name, cur.CPU)
		if !b.ok {
			results = append(results, result{name: name, cur: c, status: "no-baseline"})
			continue
		}
		r := result{name: name, base: b, cur: c, delta: (c.ns - b.ns) / b.ns}
		switch {
		case r.delta > tol:
			r.status = "regression"
			failed = true
		case r.delta < -tol:
			r.status = "improvement"
		default:
			r.status = "ok"
		}
		// Allocation guard: only when both sides actually measured memory
		// (-benchmem on both runs). Timings drift with load; allocation
		// counts should not.
		if b.memOK && c.memOK {
			if memRegressed(b.allocs, c.allocs, tol) {
				r.memNote = fmt.Sprintf("allocs/op %.1f -> %.1f", b.allocs, c.allocs)
				r.status = "regression"
				failed = true
			} else if memRegressed(b.bytes, c.bytes, tol) {
				r.memNote = fmt.Sprintf("B/op %.0f -> %.0f", b.bytes, c.bytes)
				r.status = "regression"
				failed = true
			}
		}
		results = append(results, r)
	}
	return results, failed, ""
}

func render(results []result, tol float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %14s %14s %8s %12s  %s\n", "benchmark", "baseline ns/op", "current ns/op", "delta", "allocs/op", "verdict")
	for _, r := range results {
		if !r.base.ok {
			fmt.Fprintf(&sb, "%-32s %14s %14.0f %8s %12s  %s\n", r.name, "-", r.cur.ns, "-", "-", r.status)
			continue
		}
		allocs := fmt.Sprintf("%.0f->%.0f", r.base.allocs, r.cur.allocs)
		verdict := r.status
		if r.memNote != "" {
			verdict += " (" + r.memNote + ")"
		}
		fmt.Fprintf(&sb, "%-32s %14.0f %14.0f %+7.1f%% %12s  %s\n", r.name, r.base.ns, r.cur.ns, 100*r.delta, allocs, verdict)
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
		"CheckParallel1,CheckParallel8,CheckWarmCache,ChangeContractCheck,CheckDomains10000,CheckParallel10k1,CheckParallel10k8,ConfigGen10k,MemAgentRoundTrip,MegaFleetInstall,CheckDomains100k,CheckDomains100kWarmDelta,MegaFleetInstall25k",
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
	results, failed, skip := compare(base, cur, names, *tol)
	if skip != "" {
		fmt.Printf("benchguard: skipped: %s\n", skip)
		return
	}
	fmt.Print(render(results, *tol))
	if failed {
		fmt.Println("benchguard: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchguard: ok")
}
