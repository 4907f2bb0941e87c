package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"zenport/internal/portmodel"
)

// predictBody builds a /v1/predict body for one experiment.
func predictBody(mapping string, e map[string]int) string {
	b, _ := json.Marshal(PredictRequest{Mapping: mapping, Experiment: e})
	return string(b)
}

// doReq issues one request with optional header and context overrides.
func doReq(s *Server, method, path, body string, mod func(*http.Request)) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if mod != nil {
		mod(req)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestWriteErrorClassification is the satellite's table-driven sweep:
// the server's own deadline answers 504, a client disconnect the 499
// convention, typed httpErrors pass through with their Retry-After,
// and everything else stays a 500.
func TestWriteErrorClassification(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		status     int
		msg        string
		retryAfter string
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "serve: deadline exceeded", ""},
		{"wrapped deadline", fmt.Errorf("eval: %w", context.DeadlineExceeded),
			http.StatusGatewayTimeout, "serve: deadline exceeded", ""},
		{"canceled", context.Canceled, StatusClientClosedRequest, "serve: request canceled by client", ""},
		{"wrapped canceled", fmt.Errorf("eval: %w", context.Canceled),
			StatusClientClosedRequest, "serve: request canceled by client", ""},
		{"http error", errf(http.StatusTeapot, "serve: kettle"), http.StatusTeapot, "serve: kettle", ""},
		{"retry-after", &httpError{status: http.StatusTooManyRequests,
			msg: "serve: overloaded: queue full, request shed", retryAfter: 2},
			http.StatusTooManyRequests, "serve: overloaded: queue full, request shed", "2"},
		{"plain", errors.New("boom"), http.StatusInternalServerError, "serve: internal error: boom", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			w := httptest.NewRecorder()
			s.writeError(w, tc.err)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d", w.Code, tc.status)
			}
			var body map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("bad error JSON %q: %v", w.Body.String(), err)
			}
			if body["error"] != tc.msg {
				t.Fatalf("error = %q, want %q", body["error"], tc.msg)
			}
			if got := w.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Fatalf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
		})
	}
}

// TestWriteErrorCounters pins the stats accounting: a 504 bumps
// deadline expiries, a 499 the canceled counter.
func TestWriteErrorCounters(t *testing.T) {
	s := New(Config{})
	s.writeError(httptest.NewRecorder(), context.DeadlineExceeded)
	s.writeError(httptest.NewRecorder(), context.Canceled)
	if got := s.deadlines.Load(); got != 1 {
		t.Fatalf("deadline expiries = %d, want 1", got)
	}
	if got := s.canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
}

// blockingHook is a controllable EvalHook: evaluations park on the
// release channel (honoring ctx) after signaling entry.
type blockingHook struct {
	entered chan string
	release chan struct{}
}

func newBlockingHook() *blockingHook {
	return &blockingHook{entered: make(chan string, 64), release: make(chan struct{})}
}

func (h *blockingHook) eval(ctx context.Context, key string) error {
	h.entered <- key
	select {
	case <-h.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestShedQueueFull drives the gate to its bounds: with one evaluator
// slot held and the one-deep queue occupied, the next distinct-key
// request is shed on the spot with 429 + Retry-After and the stable
// message, and the queued request still completes once the slot frees.
func TestShedQueueFull(t *testing.T) {
	hook := newBlockingHook()
	s := New(Config{Rmax: 5, MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute, EvalHook: hook.eval})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}

	type result struct {
		w *httptest.ResponseRecorder
	}
	results := make(chan result, 2)
	go func() {
		results <- result{doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil)}
	}()
	<-hook.entered // first request holds the evaluator slot

	go func() {
		results <- result{doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"mul": 1}), nil)}
	}()
	// Wait until the second request occupies the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.queueDepth.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third distinct request: slots and queue full → shed immediately.
	w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"store": 1}), nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "serve: overloaded: queue full, request shed") {
		t.Fatalf("shed body = %s", w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(hook.release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.w.Code != http.StatusOK {
			t.Fatalf("blocked request %d: status %d: %s", i, r.w.Code, r.w.Body.String())
		}
	}
	gs := s.gate.stats()
	if gs.ShedQueueFull != 1 || gs.Shed != 1 {
		t.Fatalf("gate stats = %+v, want 1 queue-full shed", gs)
	}
	if gs.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", gs.QueueDepth)
	}
}

// TestShedQueueTimeout parks a request in the queue past the queue
// deadline and demands the timed-out variant of the 429.
func TestShedQueueTimeout(t *testing.T) {
	hook := newBlockingHook()
	s := New(Config{Rmax: 5, MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 5 * time.Millisecond, EvalHook: hook.eval})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		first <- doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil)
	}()
	<-hook.entered

	w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"mul": 1}), nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "serve: overloaded: queued past deadline, request shed") {
		t.Fatalf("body = %s", w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	close(hook.release)
	if r := <-first; r.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", r.Code, r.Body.String())
	}
	if gs := s.gate.stats(); gs.ShedQueueTimeout != 1 {
		t.Fatalf("gate stats = %+v, want 1 queue-timeout shed", gs)
	}
}

// TestDeadlineHeader exercises deadline propagation end to end: a
// stalling evaluation under a small X-Zenport-Deadline answers 504 and
// bumps the deadline-expiry counter, and the evaluator slot is freed.
func TestDeadlineHeader(t *testing.T) {
	hook := newBlockingHook()
	s := New(Config{Rmax: 5, EvalHook: hook.eval})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range hook.entered { // drain entry signals
		}
	}()
	w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}),
		func(r *http.Request) { r.Header.Set(DeadlineHeader, "10ms") })
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "serve: deadline exceeded") {
		t.Fatalf("body = %s", w.Body.String())
	}
	if got := s.deadlines.Load(); got != 1 {
		t.Fatalf("deadline expiries = %d, want 1", got)
	}
	// The slot must be free again: an unblocked evaluation succeeds.
	close(hook.release)
	w = doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("post-timeout status = %d: %s", w.Code, w.Body.String())
	}
}

// TestDeadlineHeaderValidation rejects malformed and non-positive
// deadline headers with a 400 before any work happens.
func TestDeadlineHeaderValidation(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	for _, bad := range []string{"nonsense", "-5ms", "0s"} {
		w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}),
			func(r *http.Request) { r.Header.Set(DeadlineHeader, bad) })
		if w.Code != http.StatusBadRequest {
			t.Fatalf("header %q: status = %d, want 400: %s", bad, w.Code, w.Body.String())
		}
		// The quoted header value is JSON-escaped in the body; match the
		// stable prefix and the offending value separately.
		if !strings.Contains(w.Body.String(), "serve: invalid "+DeadlineHeader) ||
			!strings.Contains(w.Body.String(), bad) {
			t.Fatalf("header %q: body = %s", bad, w.Body.String())
		}
	}
}

// TestMaxDeadlineCap verifies the server caps a client-requested
// budget: with MaxDeadline 10ms, a request asking for an hour still
// times out in milliseconds.
func TestMaxDeadlineCap(t *testing.T) {
	hook := newBlockingHook()
	s := New(Config{Rmax: 5, MaxDeadline: 10 * time.Millisecond, EvalHook: hook.eval})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range hook.entered {
		}
	}()
	start := time.Now()
	w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}),
		func(r *http.Request) { r.Header.Set(DeadlineHeader, "1h") })
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", w.Code, w.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline cap ignored: took %v", elapsed)
	}
}

// TestClientDisconnect499 cancels the request context mid-evaluation
// — the serving layer's view of a client hangup — and demands the 499
// convention plus the canceled counter.
func TestClientDisconnect499(t *testing.T) {
	hook := newBlockingHook()
	s := New(Config{Rmax: 5, EvalHook: hook.eval})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}),
			func(r *http.Request) { *r = *r.WithContext(ctx) })
	}()
	<-hook.entered
	cancel()
	w := <-done
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "serve: request canceled by client") {
		t.Fatalf("body = %s", w.Body.String())
	}
	if got := s.canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
}

// TestEvaluatorPanicRecovered injects one evaluator panic and demands
// the daemon answer 500, count it, discard the poisoned evaluator, and
// keep serving.
func TestEvaluatorPanicRecovered(t *testing.T) {
	doPanic := false
	var mu sync.Mutex
	s := New(Config{Rmax: 5, EvalHook: func(ctx context.Context, key string) error {
		mu.Lock()
		p := doPanic
		doPanic = false
		mu.Unlock()
		if p {
			panic("injected evaluator panic")
		}
		return nil
	}})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	doPanic = true
	mu.Unlock()
	w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "serve: evaluator panic: injected evaluator panic") {
		t.Fatalf("body = %s", w.Body.String())
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics recovered = %d, want 1", got)
	}
	// The daemon survives and serves the same key correctly afterwards.
	w = doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d: %s", w.Code, w.Body.String())
	}
}

// TestHandlerPanicRecovered covers the outer ServeHTTP recover: a
// panicking handler answers 500 instead of unwinding the daemon.
func TestHandlerPanicRecovered(t *testing.T) {
	s := New(Config{})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("handler bug") })
	w := doReq(s, http.MethodGet, "/boom", "", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "serve: handler panic: handler bug") {
		t.Fatalf("body = %s", w.Body.String())
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics recovered = %d, want 1", got)
	}
}

// TestBreakerStateMachine unit-tests the trip/half-open/recover
// transitions with a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, time.Second, clock)

	// Interleaved successes never trip: the streak resets.
	for i := 0; i < 10; i++ {
		if _, ok := b.allow(); !ok {
			t.Fatal("closed breaker refused")
		}
		b.failure(false)
		b.failure(false)
		b.success(false)
	}
	if st := b.stats(); st.State != "closed" || st.Trips != 0 {
		t.Fatalf("stats = %+v, want closed with 0 trips", st)
	}

	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if _, ok := b.allow(); !ok {
			t.Fatalf("refused before trip at failure %d", i)
		}
		b.failure(false)
	}
	if st := b.stats(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("stats = %+v, want open with 1 trip", st)
	}
	if _, ok := b.allow(); ok {
		t.Fatal("open breaker allowed before cooldown")
	}

	// Cooldown passes: exactly one probe goes through.
	now = now.Add(2 * time.Second)
	probe, ok := b.allow()
	if !probe || !ok {
		t.Fatalf("allow after cooldown = (%v, %v), want probe", probe, ok)
	}
	if _, ok := b.allow(); ok {
		t.Fatal("second caller admitted while probe in flight")
	}

	// A failed probe re-opens; an aborted probe hands the token back.
	b.failure(probe)
	if st := b.stats(); st.State != "open" || st.Trips != 2 {
		t.Fatalf("stats = %+v, want re-opened with 2 trips", st)
	}
	now = now.Add(2 * time.Second)
	probe, ok = b.allow()
	if !probe || !ok {
		t.Fatal("no probe after second cooldown")
	}
	b.abort(probe)
	probe, ok = b.allow()
	if !probe || !ok {
		t.Fatal("aborted probe did not hand back the token")
	}

	// A successful probe closes the breaker.
	b.success(probe)
	if st := b.stats(); st.State != "closed" {
		t.Fatalf("stats = %+v, want closed after probe success", st)
	}
	if _, ok := b.allow(); !ok {
		t.Fatal("closed breaker refused after recovery")
	}
}

// TestBreakerDisabled pins the negative-threshold escape hatch.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(-1, time.Second, nil)
	for i := 0; i < 100; i++ {
		b.failure(false)
		if _, ok := b.allow(); !ok {
			t.Fatal("disabled breaker tripped")
		}
	}
}

// TestDegradedCacheOnly walks the full degraded-mode story through
// the HTTP stack: consecutive evaluator failures trip the mapping to
// cache-only (hits answered 200, misses 503 + Retry-After, breaker
// state in /v1/stats), and after the cooldown a healthy probe recovers
// it.
func TestDegradedCacheOnly(t *testing.T) {
	failing := false
	var mu sync.Mutex
	s := New(Config{Rmax: 5, BreakerThreshold: 2, BreakerCooldown: 10 * time.Millisecond,
		EvalHook: func(ctx context.Context, key string) error {
			mu.Lock()
			defer mu.Unlock()
			if failing {
				return errors.New("evaluator broken")
			}
			return nil
		}})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}

	// Warm the cache with one key while healthy.
	if w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil); w.Code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", w.Code, w.Body.String())
	}

	mu.Lock()
	failing = true
	mu.Unlock()
	// Two consecutive failures on distinct keys trip the breaker.
	for i, e := range []map[string]int{{"mul": 1}, {"store": 1}} {
		if w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", e), nil); w.Code != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	// Degraded: a cache hit still answers, a miss gets 503 + Retry-After.
	if w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil); w.Code != http.StatusOK {
		t.Fatalf("degraded cache hit: status %d: %s", w.Code, w.Body.String())
	}
	w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"shuf": 1}), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded miss: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "degraded: evaluator breaker open, serving cache only") {
		t.Fatalf("degraded body = %s", w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("degraded response missing Retry-After")
	}
	var stats StatsResponse
	do(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Mappings[0].Breaker.State != "open" || stats.Mappings[0].Breaker.Trips != 1 {
		t.Fatalf("breaker stats = %+v, want open with 1 trip", stats.Mappings[0].Breaker)
	}

	// Heal the evaluator, wait out the cooldown: the half-open probe
	// recovers the mapping.
	mu.Lock()
	failing = false
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	if w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"shuf": 1}), nil); w.Code != http.StatusOK {
		t.Fatalf("recovery probe: status %d: %s", w.Code, w.Body.String())
	}
	do(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Mappings[0].Breaker.State != "closed" {
		t.Fatalf("breaker stats after recovery = %+v, want closed", stats.Mappings[0].Breaker)
	}
}

// TestReloadGenerations covers the reload protocol: generation bumps,
// fingerprint-identical reloads keep the LRU warm, changed mappings
// drop it, and a mapping that fails validation or the smoke check
// leaves the previous generation serving untouched.
func TestReloadGenerations(t *testing.T) {
	s := New(Config{Rmax: 5})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	if gen := s.ReloadGeneration("toy"); gen != 1 {
		t.Fatalf("generation after load = %d, want 1", gen)
	}

	// Warm the cache.
	if w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil); w.Code != http.StatusOK {
		t.Fatalf("warm: %d", w.Code)
	}

	// Fingerprint-identical reload: generation bumps, cache retained.
	res, err := s.Reload("toy", toyMapping())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || !res.CacheRetained {
		t.Fatalf("identical reload = %+v, want generation 2 with cache retained", res)
	}
	var stats StatsResponse
	do(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Mappings[0].Cache.Entries == 0 {
		t.Fatal("identical reload dropped the warm cache")
	}
	if stats.Mappings[0].Generation != 2 {
		t.Fatalf("stats generation = %d, want 2", stats.Mappings[0].Generation)
	}

	// Changed mapping: cache dropped, fingerprint changes.
	res2, err := s.Reload("toy", toyMapping2())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Generation != 3 || res2.CacheRetained {
		t.Fatalf("changed reload = %+v, want generation 3 without cache", res2)
	}
	if res2.Fingerprint == res.Fingerprint {
		t.Fatal("different mappings share a fingerprint")
	}
	do(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Mappings[0].Cache.Entries != 0 {
		t.Fatalf("changed reload kept %d stale cache entries", stats.Mappings[0].Cache.Entries)
	}

	// A broken mapping is rejected; generation 3 keeps serving.
	bad := portmodel.NewMapping(6)
	bad.Set("add", portmodel.Usage{{Ports: 0, Count: 1}}) // empty port set fails Validate
	if _, err := s.Reload("toy", bad); err == nil {
		t.Fatal("reload of invalid mapping succeeded")
	}
	if gen := s.ReloadGeneration("toy"); gen != 3 {
		t.Fatalf("generation after rejected reload = %d, want 3", gen)
	}
	// vadd exists only in toyMapping2: generation 3 is still serving.
	if w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"vadd": 1}), nil); w.Code != http.StatusOK {
		t.Fatalf("serving after rejected reload: %d: %s", w.Code, w.Body.String())
	}
	// A fresh name loads at generation 1 via Reload too.
	if res, err := s.Reload("alt", toyMapping()); err != nil || res.Generation != 1 {
		t.Fatalf("reload of fresh name = %+v, %v", res, err)
	}
}

// TestAdminReloadEndpoint covers the loopback-only admin surface: a
// network client gets 403 regardless of body, a loopback client
// reloads from a mapping file on disk.
func TestAdminReloadEndpoint(t *testing.T) {
	s := New(Config{Rmax: 5})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mapping.json")
	data, err := json.Marshal(toyMapping())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(ReloadRequest{Mapping: "toy", Path: path})

	// httptest's default RemoteAddr is 192.0.2.1:1234 — a network peer.
	w := doReq(s, http.MethodPost, "/admin/reload", string(body), nil)
	if w.Code != http.StatusForbidden {
		t.Fatalf("network reload: status %d, want 403: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "serve: admin endpoint is loopback-only") {
		t.Fatalf("network reload body = %s", w.Body.String())
	}

	loopback := func(r *http.Request) { r.RemoteAddr = "127.0.0.1:55555" }
	w = doReq(s, http.MethodPost, "/admin/reload", string(body), loopback)
	if w.Code != http.StatusOK {
		t.Fatalf("loopback reload: status %d: %s", w.Code, w.Body.String())
	}
	var res ReloadResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || !res.CacheRetained {
		t.Fatalf("reload result = %+v, want generation 2 with cache retained", res)
	}

	// Missing fields and unreadable paths are 400s.
	w = doReq(s, http.MethodPost, "/admin/reload", `{"mapping":"toy"}`, loopback)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "serve: reload needs mapping and path") {
		t.Fatalf("missing path: %d %s", w.Code, w.Body.String())
	}
	missing, _ := json.Marshal(ReloadRequest{Mapping: "toy", Path: filepath.Join(t.TempDir(), "nope.json")})
	w = doReq(s, http.MethodPost, "/admin/reload", string(missing), loopback)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing file: status %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestStatsRobustnessCounters spot-checks that the new counters are
// actually wired into the /v1/stats JSON (names are the soak's API).
func TestStatsRobustnessCounters(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	w := do(t, s, http.MethodGet, "/v1/stats", "", nil)
	var raw map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"gate", "panics_recovered", "deadline_expiries", "canceled", "reloads"} {
		if _, ok := raw[field]; !ok {
			t.Fatalf("stats JSON missing %q: %s", field, w.Body.String())
		}
	}
	gate := raw["gate"].(map[string]any)
	for _, field := range []string{"shed", "queue_depth_high_water", "max_concurrent", "max_queue"} {
		if _, ok := gate[field]; !ok {
			t.Fatalf("gate stats missing %q", field)
		}
	}
	m := raw["mappings"].([]any)[0].(map[string]any)
	for _, field := range []string{"generation", "fingerprint", "breaker"} {
		if _, ok := m[field]; !ok {
			t.Fatalf("mapping stats missing %q", field)
		}
	}
}

// TestEndedContextTakesOnlyCacheHits pins the rule for a request whose
// context has already ended when it reaches predict: an LRU hit still
// answers 200 with cached: true, because answering from the cache costs
// nothing, while a miss answers 504 without taking a gate slot, a
// breaker probe or an evaluation.
func TestEndedContextTakesOnlyCacheHits(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	hot := predictBody("toy", map[string]int{"add": 1})
	if w := doReq(s, http.MethodPost, "/v1/predict", hot, nil); w.Code != http.StatusOK {
		t.Fatalf("warm-up status = %d: %s", w.Code, w.Body.String())
	}
	h := s.state().mappings["toy"]
	admitted, evals, brk := s.gate.stats().Admitted, h.evals.Load(), h.breaker.stats()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ended := func(r *http.Request) { *r = *r.WithContext(expired) }

	w := doReq(s, http.MethodPost, "/v1/predict", hot, ended)
	if w.Code != http.StatusOK {
		t.Fatalf("hit status = %d, want 200: %s", w.Code, w.Body.String())
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatalf("hit not served from the cache: %s", w.Body.String())
	}

	w = doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 2}), ended)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("miss status = %d, want 504: %s", w.Code, w.Body.String())
	}
	if got := s.gate.stats().Admitted; got != admitted {
		t.Fatalf("gate admitted %d → %d for an ended request", admitted, got)
	}
	if got := h.evals.Load(); got != evals {
		t.Fatalf("evaluations %d → %d for an ended request", evals, got)
	}
	if got := h.breaker.stats(); got != brk {
		t.Fatalf("breaker %+v → %+v for an ended request", brk, got)
	}
}
