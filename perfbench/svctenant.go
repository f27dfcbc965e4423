package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"nmsl/internal/netsim"
)

// svcTenant is the generator's model of one nmsld tenant: its current
// source text, every poller's frequency, and the verdict predicted for
// each generation the daemon has acknowledged.
type svcTenant struct {
	id string
	p  netsim.Params

	// edit serializes this tenant's edits (PUT then delta-check), so the
	// prediction for a generation is made before it can be observed.
	edit sync.Mutex
	src  string
	freq []int // per-domain poller frequency, in minutes

	mu     sync.Mutex
	gen    int64
	expect map[int64]int // generation → predicted violation count
}

// exportMinutes is the minimum period every netsim agent exports at: a
// poller asking more often than this is one frequency violation per
// system of the domain it polls.
const exportMinutes = 5

func newSvcTenant(id string, p netsim.Params) (*svcTenant, error) {
	t := &svcTenant{id: id, p: p, src: netsim.Source(p), expect: map[int64]int{}}
	t.freq = make([]int, p.Domains)
	for d := range t.freq {
		j, k, err := t.freqSpan(d)
		if err != nil {
			return nil, err
		}
		f, err := strconv.Atoi(t.src[j:k])
		if err != nil {
			return nil, fmt.Errorf("tenant %s: poller %d frequency: %w", id, d, err)
		}
		t.freq[d] = f
	}
	if got, want := t.violations(), netsim.ExpectedViolations(p); got != want {
		return nil, fmt.Errorf("tenant %s: text predicts %d violations, generator injected %d", id, got, want)
	}
	return t, nil
}

// freqSpan locates the number in poller d's "frequency >= N minutes".
func (t *svcTenant) freqSpan(d int) (int, int, error) {
	head := fmt.Sprintf("process pollerT%d ::=", d)
	i := strings.Index(t.src, head)
	if i < 0 {
		return 0, 0, fmt.Errorf("tenant %s: no %q", t.id, head)
	}
	const kw = "frequency >= "
	j := strings.Index(t.src[i:], kw)
	if j < 0 {
		return 0, 0, fmt.Errorf("tenant %s: poller %d has no frequency", t.id, d)
	}
	j += i + len(kw)
	k := strings.Index(t.src[j:], " minutes;")
	if k < 0 {
		return 0, 0, fmt.Errorf("tenant %s: poller %d frequency is not in minutes", t.id, d)
	}
	return j, j + k, nil
}

// violations is the verdict the current text must get.
func (t *svcTenant) violations() int {
	n := 0
	for _, f := range t.freq {
		if f < exportMinutes {
			n += t.p.SystemsPerDomain
		}
	}
	return n
}

// flip edits poller d between ">= 1 minutes" (a violation per polled
// system) and ">= 10 minutes" (consistent) and returns the new text.
// The caller holds t.edit.
func (t *svcTenant) flip(d int) (string, error) {
	j, k, err := t.freqSpan(d)
	if err != nil {
		return "", err
	}
	next := 1
	if t.freq[d] < exportMinutes {
		next = 10
	}
	t.freq[d] = next
	t.src = t.src[:j] + strconv.Itoa(next) + t.src[k:]
	return t.src, nil
}

// predict records the verdict of the next generation and returns it.
func (t *svcTenant) predict() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	t.expect[t.gen] = t.violations()
	return t.gen
}

// verify checks a verdict against the prediction for its generation.
func (t *svcTenant) verify(gen int64, consistent bool, violations int) error {
	t.mu.Lock()
	want, ok := t.expect[gen]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("tenant %s: verdict for unknown generation %d", t.id, gen)
	}
	if violations != want || consistent != (want == 0) {
		return fmt.Errorf("tenant %s generation %d: %d violations (consistent %v), predicted %d", t.id, gen, violations, consistent, want)
	}
	return nil
}
