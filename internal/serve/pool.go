package serve

import (
	"sync"
	"sync/atomic"

	"zenport/internal/portmodel"
)

// evalPool hands out per-goroutine compiled evaluators for one
// mapping. portmodel.Compiled is documented single-goroutine — its
// scratch buffers are unsynchronized by design, because the
// inference pipeline's hot loops own one evaluator each. A server
// handling concurrent requests must therefore never share one
// evaluator across handlers; this pool gives every in-flight request
// exclusive use of a compiled evaluator and recycles them through a
// free list. The list keeps at most max evaluators — the admission
// gate's concurrency bound, so every evaluator a gated burst compiled
// is kept — and the garbage collector never empties it, so
// steady-state serving compiles nothing.
//
// Results are independent of which pooled evaluator answers a query:
// a Compiled is a pure function of its mapping and caches nothing, so
// pooling preserves the bit-identical-to-batch guarantee that
// zenload -verify asserts.
type evalPool struct {
	m        *portmodel.Mapping
	max      int
	mu       sync.Mutex
	free     []*portmodel.Compiled
	compiles atomic.Uint64
}

// newEvalPool validates that the mapping compiles and returns a pool
// for it that keeps up to max idle evaluators.
func newEvalPool(m *portmodel.Mapping, max int) (*evalPool, error) {
	p := &evalPool{m: m, max: max}
	c, err := p.get()
	if err != nil {
		return nil, err
	}
	p.put(c)
	return p, nil
}

// get returns an exclusive evaluator, compiling a fresh one when the
// free list is empty (startup, or more requests in flight than ever
// before).
func (p *evalPool) get() (*portmodel.Compiled, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := portmodel.CompileMapping(p.m, nil)
	if err != nil {
		return nil, err
	}
	p.compiles.Add(1)
	return c, nil
}

// put returns an evaluator to the free list, dropping it when the list
// is full.
func (p *evalPool) put(c *portmodel.Compiled) {
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, c)
	}
	p.mu.Unlock()
}
