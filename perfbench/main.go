// Command perfbench is the end-to-end benchmark of the NMSL network
// manager. It drives three seeded workloads through the repository's
// public layers and prints one JSON result line:
//
//	perfbench -workload spec-cold|svc-mixed|fleet-push -seed n -seconds s -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics of an untraced run;
// with -trace 1 it wraps every layer call it makes in a span and
// reports per-layer metrics instead (see README.md). Every output the
// program produces is compared against an independent reference; a
// mismatch makes the result incorrect and the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes are the benchmark's input sizes, its offered rate and its
// repetition counts: fullSizes is the benchmark, and the smoke test
// shrinks them. Every other parameter is a constant beside the
// workload that uses it, sized for a two-CPU machine.
type sizes struct {
	coldDomains int     // spec-cold: leaf domains of the internet
	tenants     int     // svc-mixed: tenants nmsld holds
	minDomains  int     // svc-mixed: the smallest tenant's domains
	maxDomains  int     // svc-mixed: the largest tenant's domains
	offeredRPS  float64 // svc-mixed: the fixed offered rate
	agents      int     // fleet-push: in-memory agents
	setupReps   int     // set-ups per run (restarts, fleet builds), median reported
	minReps     int     // measured repetitions per run, at least
}

var fullSizes = sizes{
	coldDomains: 10000,
	tenants:     16,
	minDomains:  50,
	maxDomains:  400,
	offeredRPS:  20,
	agents:      10000,
	setupReps:   7,
	minReps:     3,
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	Attempted int
	Failed    int
	// Failures describes each failed check, one line each.
	Failures []string
	Metrics  map[string]metric
	// Notes are human-readable lines printed before the result.
	Notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// env is what every workload receives.
type env struct {
	sz       sizes
	seed     int64
	seconds  float64
	tr       *tracer // nil in untraced runs
	workDir  string  // scratch space inside the checkout
	nmsldBin string
	log      io.Writer
}

type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"spec-cold", runSpecCold},
	{"svc-mixed", runSvcMixed},
	{"fleet-push", runFleetPush},
}

// endToEnd and perLayer name every metric of the two modes, with units;
// a workload that does not exercise a layer reports it as measured: 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"check_ms", "ms"},
	{"change_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"lexer.ms", "ms"}, {"lexer.alloc_mb", "MB"}, {"lexer.tokens", "count"},
	{"parser.ms", "ms"}, {"parser.alloc_mb", "MB"}, {"parser.decls", "count"},
	{"sema.analyze_ms", "ms"}, {"sema.analyze_alloc_mb", "MB"},
	{"sema.link_ms", "ms"}, {"sema.link_alloc_mb", "MB"}, {"sema.diff_ms", "ms"},
	{"consistency.model_ms", "ms"}, {"consistency.model_alloc_mb", "MB"},
	{"consistency.refs", "count"}, {"consistency.perms", "count"},
	{"consistency.check_first_ms", "ms"}, {"consistency.check_again_ms", "ms"},
	{"consistency.check_alloc_mb", "MB"}, {"consistency.delta_ms", "ms"},
	{"consistency.violations", "count"},
	{"consistency.cache_hits", "count"}, {"consistency.cache_misses", "count"},
	{"configgen.generate_ms", "ms"}, {"configgen.generate_alloc_mb", "MB"},
	{"configgen.configs", "count"}, {"configgen.rollout_ms", "ms"},
	{"configgen.attempts_per_target", "count"},
	{"snmp.roundtrips", "count"}, {"snmp.alloc_kb_per_roundtrip", "kB"},
	{"snmp.allocs_per_roundtrip", "count"}, {"snmp.retransmits", "count"},
	{"megafleet.build_ms", "ms"},
	{"agent.config_loads", "count"}, {"agent.duplicate_loads", "count"},
	{"reconcile.sweep_ms", "ms"}, {"reconcile.checked", "count"},
	{"reconcile.drifted", "count"}, {"reconcile.healed", "count"},
	{"service.read_server_ms", "ms"}, {"service.read_wire_ms", "ms"},
	{"service.put_ms", "ms"}, {"service.delta_after_edit_ms", "ms"},
	{"service.refused", "count"},
	{"service.read_tail_ms", "ms"}, {"service.edit_tail_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.achieved_rps", "1/s"},
	{"trace.overhead_frac", "frac"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "spec-cold, svc-mixed or fleet-push")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := fs.String("workdir", ".bench_build/run", "scratch directory (state dirs, traces)")
	nmsld := fs.String("nmsld", ".bench_build/bin/nmsld", "nmsld binary for svc-mixed")
	coldFile := fs.String("cold-pass", "", "internal: run one cold spec-cold pass over this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *coldFile != "" {
		if err := coldPass(*coldFile, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (spec-cold|svc-mixed|fleet-push), -seconds > 0, -trace 0|1\n")
		return 2
	}
	dir := filepath.Join(*workDir, fmt.Sprintf("%s-seed%d-trace%d-%d", *name, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	e := &env{sz: fullSizes, seed: *seed, seconds: *seconds, workDir: dir, nmsldBin: *nmsld, log: stderr}
	if *trace == 1 {
		e.tr = newTracer()
	}
	start := time.Now()
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	wall := time.Since(start)

	want := endToEnd
	if e.tr != nil {
		want = perLayer
		path := filepath.Join(*workDir, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := e.tr.writeFile(path, *name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(e.tr.spans), path)
	}
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := out.Metrics[m.name]
		if !ok {
			out.fail("metric %s was not measured", m.name)
			v = metric{Unit: m.unit}
		}
		metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	for _, n := range out.Notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range out.Failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	for _, m := range want {
		fmt.Fprintf(stdout, "%-32s %14.4f %s\n", m.name, metrics[m.name].Value, m.unit)
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	failFrac := float64(out.Failed) / float64(out.Attempted)
	fmt.Fprintf(stdout, "fail_frac %.6f (%d of %d); run took %.1fs\n", failFrac, out.Failed, out.Attempted, wall.Seconds())
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1);
// xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean averages xs after dropping the lowest and highest frac of
// the samples.
func trimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(float64(len(s)) * frac)
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// gcStats is the process's cumulative GC count and pause time.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{m.NumGC, m.PauseTotalNs}
}

func (g gcStats) since(prev gcStats) (cycles float64, pauseMS float64) {
	return float64(g.cycles - prev.cycles), float64(g.pauseNS-prev.pauseNS) / 1e6
}

// repeatFor runs reps while another one, as long as the last, still
// fits the measured budget, and at least min of them; rep returns
// false to stop early. It returns how many reps ran.
func repeatFor(budget time.Duration, min int, rep func(i int) bool) int {
	start := time.Now()
	var last time.Duration
	i := 0
	for ; i < min || time.Since(start)+last <= budget; i++ {
		t := time.Now()
		if !rep(i) {
			return i + 1
		}
		last = time.Since(t)
	}
	return i
}

// fmtList renders samples for a note line.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}
