package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffCancelPrompt: cancelling the context must cut a retry
// backoff sleep short, however long the delay.
func TestBackoffCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(nil)
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	err := g.sleep(ctx, 10*time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored cancellation for %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if w := g.Metrics().BackoffWait; w <= 0 || w > 5*time.Second {
		t.Fatalf("BackoffWait = %v, want the time slept before cancellation", w)
	}
}

// TestBackoffHonoursContext: the retry backoff itself must hand its
// context to sleep. Attempt 17 asks for a jittered delay of 6.5–13 s,
// so a backoff that slept without the context would blow the bound.
func TestBackoffHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(nil)
	start := time.Now()
	err := g.backoff(ctx, []string{"a"}, 17)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored cancellation for %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
