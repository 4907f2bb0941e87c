package serve

import (
	"context"
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
// sync.Pool, so steady-state serving compiles nothing and allocates
// only what the runtime's pool shards need.
//
// Results are independent of which pooled evaluator answers a query:
// a Compiled is a pure function of its mapping and caches nothing, so
// pooling preserves the bit-identical-to-batch guarantee that
// zenload -verify asserts.
type evalPool struct {
	m        *portmodel.Mapping
	pool     sync.Pool // holds *portmodel.Compiled
	compiles atomic.Uint64
}

// newEvalPool validates that the mapping compiles and returns a pool
// for it.
func newEvalPool(m *portmodel.Mapping) (*evalPool, error) {
	p := &evalPool{m: m}
	c, err := p.get(context.Background())
	if err != nil {
		return nil, err
	}
	p.put(c)
	return p, nil
}

// get returns an exclusive evaluator, compiling a fresh one when the
// pool is empty (startup, or after the GC trimmed it). A context that
// already ended returns its error instead: a request whose deadline
// expired while queued must not check out an evaluator it will never
// use.
func (p *evalPool) get(ctx context.Context) (*portmodel.Compiled, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if v := p.pool.Get(); v != nil {
		return v.(*portmodel.Compiled), nil
	}
	c, err := portmodel.CompileMapping(p.m, nil)
	if err != nil {
		return nil, err
	}
	p.compiles.Add(1)
	return c, nil
}

// put returns an evaluator to the pool.
func (p *evalPool) put(c *portmodel.Compiled) { p.pool.Put(c) }
