package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made by the benchmark around a
// public function of the program. Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocBytes and Mallocs are runtime.MemStats deltas across the
	// call, recorded only for spans opened with alloc accounting.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	SelfNS     int64  `json:"self_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	mem   map[int]runtime.MemStats
	// notes are counts observed at layer boundaries (tokens, decls,
	// refs, ...), by name, in the order recorded.
	notes map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), mem: map[int]runtime.MemStats{}, notes: map[string][]float64{}}
}

// begin opens a span; withAlloc reads MemStats at both ends (a brief
// stop-the-world, so only for calls that run one at a time).
func (t *tracer) begin(name string, parent int, withAlloc bool) int {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	if withAlloc {
		runtime.ReadMemStats(&ms)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0)), EndNS: -1})
	if withAlloc {
		t.mem[id] = ms
	}
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	before, withAlloc := t.mem[id]
	t.mu.Unlock()
	var ms runtime.MemStats
	if withAlloc {
		runtime.ReadMemStats(&ms)
		now = int64(time.Since(t.t0))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	if withAlloc {
		s.AllocBytes = ms.TotalAlloc - before.TotalAlloc
		s.Mallocs = ms.Mallocs - before.Mallocs
		delete(t.mem, id)
	}
}

// note records a count observed at a layer boundary.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.notes[name] = append(t.notes[name], v)
}

// noted returns the median of a recorded count, 0 when never recorded.
func (t *tracer) noted(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.notes[name])
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, withAlloc bool, fn func(id int)) {
	id := t.begin(name, parent, withAlloc)
	fn(id)
	t.end(id)
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	Count   int       `json:"count"`
	DurMS   []float64 `json:"-"`
	AllocMB []float64 `json:"-"`
	TotalMS float64   `json:"total_ms"`
	SelfSum float64   `json:"self_ms"`
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover (children of concurrent
// callers may overlap, so their union is taken).
func (t *tracer) finish() map[string]*layerStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndNS >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	agg := map[string]*layerStats{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.EndNS < 0 {
			continue
		}
		s.SelfNS = (s.EndNS - s.StartNS) - covered(kids[s.ID], s.StartNS, s.EndNS)
		a := agg[s.Name]
		if a == nil {
			a = &layerStats{}
			agg[s.Name] = a
		}
		a.Count++
		d := float64(s.EndNS-s.StartNS) / 1e6
		a.DurMS = append(a.DurMS, d)
		a.TotalMS += d
		a.SelfSum += float64(s.SelfNS) / 1e6
		if s.Mallocs > 0 || s.AllocBytes > 0 {
			a.AllocMB = append(a.AllocMB, float64(s.AllocBytes)/(1<<20))
		}
	}
	return agg
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// rootSelfFrac returns the share of the operation spans' (roots with
// children) wall time that no layer span covers: the benchmark's own
// glue between layer calls. Self time plus the children's coverage
// equals the wall time by construction, so a small share means the
// layers account for the operations.
func (t *tracer) rootSelfFrac() float64 {
	if t == nil {
		return 0
	}
	t.finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := map[int]bool{}
	for _, s := range t.spans {
		parents[s.Parent] = true
	}
	var self, wall int64
	for _, s := range t.spans {
		if s.Parent == 0 && parents[s.ID] && s.EndNS > s.StartNS {
			self += s.SelfNS
			wall += s.EndNS - s.StartNS
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

func (t *tracer) writeFile(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	agg := t.finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Layers   map[string]*layerStats `json:"layers"`
		Spans    []span                 `json:"spans"`
	}{workload, seed, agg, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
