package main

// zeroLayers reports every per-layer metric as 0 until measured: a
// workload that never calls into a layer measures zero work there.
func zeroLayers(o *outcome) {
	for _, m := range perLayer {
		o.set(m.name, 0, m.unit)
	}
}

// spanMetrics maps span names to the per-layer time and allocation
// metrics they feed. Times are the median per call; allocations the
// median per call of the MemStats delta.
var spanMetrics = []struct{ span, ms, allocMB string }{
	{"lexer.all", "lexer.ms", "lexer.alloc_mb"},
	{"parser.parse", "parser.ms", "parser.alloc_mb"},
	{"sema.analyze", "sema.analyze_ms", "sema.analyze_alloc_mb"},
	{"sema.link", "sema.link_ms", "sema.link_alloc_mb"},
	{"sema.diff", "sema.diff_ms", ""},
	{"consistency.model", "consistency.model_ms", "consistency.model_alloc_mb"},
	{"consistency.check_first", "consistency.check_first_ms", "consistency.check_alloc_mb"},
	{"consistency.check_again", "consistency.check_again_ms", ""},
	{"consistency.delta", "consistency.delta_ms", ""},
	{"configgen.generate", "configgen.generate_ms", "configgen.generate_alloc_mb"},
	{"configgen.rollout", "configgen.rollout_ms", ""},
	{"megafleet.build", "megafleet.build_ms", ""},
	{"reconcile.sweep", "reconcile.sweep_ms", ""},
}

// layerTimes fills the time and allocation metrics from the trace.
func layerTimes(o *outcome, agg map[string]*layerStats) {
	for _, sm := range spanMetrics {
		a := agg[sm.span]
		if a == nil {
			continue
		}
		o.set(sm.ms, median(a.DurMS), "ms")
		if sm.allocMB != "" {
			o.set(sm.allocMB, median(a.AllocMB), "MB")
		}
	}
}
