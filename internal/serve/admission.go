package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// The admission gate sits in front of the evaluator pool: a bounded
// number of requests evaluate concurrently, a bounded number wait in
// a FIFO queue for at most the queue deadline, and everything beyond
// those bounds is shed immediately with 429 + Retry-After instead of
// queuing unboundedly. Shedding is the load-safety contract of the
// serving layer — under overload the daemon answers *something* for
// every connection (a stable JSON error the client can back off on)
// rather than accumulating goroutines until the process dies. Cache
// hits never touch the gate: only evaluator work is admission-
// controlled, so a saturated daemon still answers its hot set at full
// speed.

// Gate sentinel errors, converted to their stable HTTP errors by the
// server (the gate itself is transport-agnostic).
var (
	// errGateFull reports that both the evaluator slots and the wait
	// queue were full on arrival.
	errGateFull = errors.New("serve: admission queue full")
	// errGateTimeout reports that the request waited in the queue past
	// the queue deadline without getting an evaluator slot.
	errGateTimeout = errors.New("serve: admission queue deadline exceeded")
)

// gate is the bounded-concurrency, bounded-queue admission controller.
type gate struct {
	// slots bounds concurrent evaluator work; holding a token is the
	// right to check an evaluator out of the pool.
	slots chan struct{}
	// queue bounds how many requests may wait for a slot.
	queue chan struct{}
	// timeout is the queue deadline: a request that cannot get a slot
	// within it is shed rather than left waiting.
	timeout time.Duration

	admitted     atomic.Uint64
	queued       atomic.Uint64
	shedFull     atomic.Uint64
	shedTimeout  atomic.Uint64
	queueDepth   atomic.Int64
	queueDepthHW atomic.Int64
}

// newGate returns a gate admitting maxConcurrent evaluations with a
// wait queue of maxQueue and the given queue deadline.
func newGate(maxConcurrent, maxQueue int, timeout time.Duration) *gate {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &gate{
		slots:   make(chan struct{}, maxConcurrent),
		queue:   make(chan struct{}, maxQueue),
		timeout: timeout,
	}
}

// acquire admits the caller to evaluator work, queuing it when the
// concurrency bound is reached. It returns errGateFull when the queue
// is full on arrival, errGateTimeout when the queue deadline passes
// first, and ctx.Err() when the request's own deadline or client
// disconnect fires while queued. On nil return the caller holds a slot
// and must release() it.
func (g *gate) acquire(ctx context.Context) error {
	// Fast path: a free evaluator slot, no queuing.
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	default:
	}
	// Saturated: enter the bounded queue or shed on the spot.
	select {
	case g.queue <- struct{}{}:
	default:
		g.shedFull.Add(1)
		return errGateFull
	}
	g.queued.Add(1)
	depth := g.queueDepth.Add(1)
	for {
		hw := g.queueDepthHW.Load()
		if depth <= hw || g.queueDepthHW.CompareAndSwap(hw, depth) {
			break
		}
	}
	defer func() {
		g.queueDepth.Add(-1)
		<-g.queue
	}()

	t := time.NewTimer(g.timeout)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	case <-t.C:
		g.shedTimeout.Add(1)
		return errGateTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the caller's evaluator slot.
func (g *gate) release() { <-g.slots }

// GateStats is the admission gate's counter snapshot, served in
// /v1/stats so soaks and operators can assert on shedding behavior.
type GateStats struct {
	MaxConcurrent       int    `json:"max_concurrent"`
	MaxQueue            int    `json:"max_queue"`
	Admitted            uint64 `json:"admitted"`
	Queued              uint64 `json:"queued"`
	Shed                uint64 `json:"shed"`
	ShedQueueFull       uint64 `json:"shed_queue_full"`
	ShedQueueTimeout    uint64 `json:"shed_queue_timeout"`
	QueueDepth          int64  `json:"queue_depth"`
	QueueDepthHighWater int64  `json:"queue_depth_high_water"`
}

// stats snapshots the gate counters.
func (g *gate) stats() GateStats {
	full, timeout := g.shedFull.Load(), g.shedTimeout.Load()
	return GateStats{
		MaxConcurrent:       cap(g.slots),
		MaxQueue:            cap(g.queue),
		Admitted:            g.admitted.Load(),
		Queued:              g.queued.Load(),
		Shed:                full + timeout,
		ShedQueueFull:       full,
		ShedQueueTimeout:    timeout,
		QueueDepth:          g.queueDepth.Load(),
		QueueDepthHighWater: g.queueDepthHW.Load(),
	}
}
