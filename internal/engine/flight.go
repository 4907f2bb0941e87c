package engine

import (
	"context"
	"sync"
)

// flight is the engine's keyed singleflight group: concurrent
// measurements of the same canonical key execute once and share the
// result.
//
//   - the probe hook runs under the engine's lock before leading or
//     joining, so the result cache is checked atomically with the
//     in-flight registry (no probe/lead window in which a finished
//     leader's result is missed and work repeats);
//   - followers wait on the leader observing their own context;
//   - when a leader fails, each waiting follower retries from the
//     probe and may lead itself, so the error a caller reports
//     reflects its own attempt and context;
//   - a successful leader commits under the lock (cache fill) and then
//     publishes outside it (journal I/O) before followers are
//     released, so anything a follower observes is already durable.
type flight struct {
	mu       *sync.Mutex
	inflight map[string]*flightCall
}

// flightCall is one in-flight execution other callers can wait on.
type flightCall struct {
	done chan struct{}
	val  Result
	err  error
}

// flightOutcome reports how a do call was resolved: exactly one of hit
// and led is true unless the caller was a follower for the whole call
// (both false), and joined counts how many in-flight leaders were
// awaited along the way (a follower whose leader failed joins again or
// leads on the next loop).
type flightOutcome struct {
	// hit reports that the probe short-circuited the call.
	hit bool
	// led reports that this caller executed the work itself.
	led bool
	// joined counts the in-flight executions this caller waited on.
	joined int
}

// newFlight returns a flight group guarded by the engine's mutex, so
// the probe-then-lead sequence is atomic with cache fills.
func newFlight(mu *sync.Mutex) *flight {
	return &flight{mu: mu, inflight: make(map[string]*flightCall)}
}

// do resolves key through probe, coalesce, and execute. probe is
// consulted under the lock first — returning ok short-circuits with
// its value. If another call for key is in flight, do waits for it,
// honoring ctx; a failed leader makes the follower retry from the
// probe. Otherwise the caller leads: fn runs outside the lock, and on
// success commit (under the lock) and then publish (outside the lock)
// run before waiting followers are released. fn's error is returned
// only to the leader that ran it.
func (f *flight) do(
	ctx context.Context,
	key string,
	probe func() (Result, bool),
	fn func() (Result, error),
	commit func(Result),
	publish func(Result),
) (Result, flightOutcome, error) {
	var out flightOutcome
	for {
		f.mu.Lock()
		if v, ok := probe(); ok {
			f.mu.Unlock()
			out.hit = true
			return v, out, nil
		}
		if c, ok := f.inflight[key]; ok {
			f.mu.Unlock()
			out.joined++
			select {
			case <-c.done:
				if c.err != nil {
					continue // leader failed; try to lead ourselves
				}
				return c.val, out, nil
			case <-ctx.Done():
				return Result{}, out, ctx.Err()
			}
		}
		// About to lead: a caller whose context already ended must not
		// start work nobody will read (probe hits above still serve —
		// answering from cache costs nothing).
		if err := ctx.Err(); err != nil {
			f.mu.Unlock()
			return Result{}, out, err
		}
		c := &flightCall{done: make(chan struct{})}
		f.inflight[key] = c
		f.mu.Unlock()

		out.led = true
		c.val, c.err = fn()
		f.mu.Lock()
		delete(f.inflight, key)
		if c.err == nil {
			commit(c.val)
		}
		f.mu.Unlock()
		if c.err == nil {
			publish(c.val)
		}
		close(c.done)
		if c.err != nil {
			return Result{}, out, c.err
		}
		return c.val, out, nil
	}
}
