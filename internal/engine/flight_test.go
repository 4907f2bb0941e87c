package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noProbe never hits and discard ignores a value: the hooks of a
// flight without a cache.
func noProbe() (Result, bool) { return Result{}, false }
func discard(Result)          {}

// tp returns a result carrying v as its inverse throughput.
func tp(v float64) Result { return Result{InvThroughput: v} }

// TestFlightCoalesces proves that concurrent do calls with one key
// execute fn exactly once and all observe the leader's value.
func TestFlightCoalesces(t *testing.T) {
	f := newFlight(new(sync.Mutex))
	var execs atomic.Int64
	release := make(chan struct{})
	const callers = 32

	var wg sync.WaitGroup
	vals := make([]Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := f.do(context.Background(), "k", noProbe, func() (Result, error) {
				execs.Add(1)
				<-release
				return tp(42), nil
			}, discard, discard)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i] = v
		}(i)
	}
	// Let callers pile up on the single leader, then release it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	for i, v := range vals {
		if v.InvThroughput != 42 {
			t.Fatalf("caller %d observed %v, want 42", i, v.InvThroughput)
		}
	}
}

// TestFlightProbeShortCircuits proves the probe answers without
// executing fn, and that commit fills whatever the probe reads.
func TestFlightProbeShortCircuits(t *testing.T) {
	var mu sync.Mutex
	cache := map[string]Result{}
	f := newFlight(&mu)
	probe := func() (Result, bool) { v, ok := cache["k"]; return v, ok }
	commit := func(v Result) { cache["k"] = v }

	v, out, err := f.do(context.Background(), "k", probe,
		func() (Result, error) { return tp(7), nil }, commit, discard)
	if err != nil || v.InvThroughput != 7 || !out.led || out.hit {
		t.Fatalf("first call: v=%v out=%+v err=%v, want led miss 7", v.InvThroughput, out, err)
	}
	v, out, err = f.do(context.Background(), "k", probe,
		func() (Result, error) { t.Fatal("fn ran despite cached value"); return Result{}, nil }, commit, discard)
	if err != nil || v.InvThroughput != 7 || !out.hit || out.led {
		t.Fatalf("second call: v=%v out=%+v err=%v, want probe hit 7", v.InvThroughput, out, err)
	}
}

// TestFlightFollowerRetriesFailedLeader proves that a follower whose
// leader fails re-runs the work itself and reports its own outcome.
func TestFlightFollowerRetriesFailedLeader(t *testing.T) {
	f := newFlight(new(sync.Mutex))
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := f.do(context.Background(), "k", noProbe, func() (Result, error) {
			calls.Add(1)
			close(leaderIn)
			<-release
			return Result{}, boom
		}, discard, discard)
		if !errors.Is(err, boom) {
			t.Errorf("leader error = %v, want boom", err)
		}
	}()

	<-leaderIn // follower joins only once the leader is in flight
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		v, out, err := f.do(context.Background(), "k", noProbe, func() (Result, error) {
			calls.Add(1)
			return tp(99), nil
		}, discard, discard)
		if err != nil || v.InvThroughput != 99 {
			t.Errorf("follower: v=%v err=%v, want 99", v.InvThroughput, err)
		}
		if out.joined != 1 || !out.led {
			t.Errorf("follower outcome = %+v, want joined once then led", out)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	wg2.Wait()
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn executed %d times, want 2 (failed leader + retrying follower)", n)
	}
}

// TestFlightFollowerHonorsContext proves a waiting follower returns
// its own context error while the leader keeps running.
func TestFlightFollowerHonorsContext(t *testing.T) {
	f := newFlight(new(sync.Mutex))
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go func() {
		_, _, _ = f.do(context.Background(), "k", noProbe, func() (Result, error) {
			close(leaderIn)
			<-release
			return tp(1), nil
		}, discard, discard)
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := f.do(ctx, "k", noProbe, func() (Result, error) { return tp(2), nil }, discard, discard)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return")
	}
}

// TestFlightPublishBeforeRelease proves publish runs before waiting
// followers observe the value — the ordering the persist journal
// relies on (a follower must never see a result that is not yet
// recorded).
func TestFlightPublishBeforeRelease(t *testing.T) {
	f := newFlight(new(sync.Mutex))
	var published atomic.Bool
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	go func() {
		_, _, _ = f.do(context.Background(), "k", noProbe, func() (Result, error) {
			close(leaderIn)
			<-release
			return tp(5), nil
		}, discard, func(Result) {
			time.Sleep(5 * time.Millisecond) // widen the race window
			published.Store(true)
		})
	}()
	<-leaderIn

	done := make(chan bool, 1)
	go func() {
		_, _, _ = f.do(context.Background(), "k", noProbe,
			func() (Result, error) { return Result{}, nil }, discard, discard)
		done <- published.Load()
	}()
	time.Sleep(5 * time.Millisecond)
	close(release)
	if ok := <-done; !ok {
		t.Fatal("follower released before publish completed")
	}
}
