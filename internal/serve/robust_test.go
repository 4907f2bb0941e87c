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

// holdSlot takes one of the gate's evaluator slots, as an evaluation
// in progress would, and returns the function that gives it back.
func holdSlot(t *testing.T, s *Server) func() {
	t.Helper()
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s.gate.release
}

// waitQueued waits until a request occupies the admission queue.
func waitQueued(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.queueDepth.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedQueueFull drives the gate to its bounds: with the one
// evaluator slot held and the one-deep queue occupied, the next
// request is shed on the spot with 429 + Retry-After and the stable
// message, and the queued request still completes once the slot frees.
func TestShedQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5, MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute})
	release := holdSlot(t, s)

	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		queued <- doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"mul": 1}), nil)
	}()
	waitQueued(t, s)

	// Next request: slots and queue full → shed immediately.
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

	release()
	if r := <-queued; r.Code != http.StatusOK {
		t.Fatalf("queued request: status %d: %s", r.Code, r.Body.String())
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
	s := newTestServer(t, Config{Rmax: 5, MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 5 * time.Millisecond})
	release := holdSlot(t, s)

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
	release()
	if w := doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"mul": 1}), nil); w.Code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", w.Code, w.Body.String())
	}
	if gs := s.gate.stats(); gs.ShedQueueTimeout != 1 {
		t.Fatalf("gate stats = %+v, want 1 queue-timeout shed", gs)
	}
}

// TestDeadlineHeader exercises the client's deadline end to end: a
// request queued behind a held slot under a small X-Zenport-Deadline,
// well inside the queue timeout, answers 504, bumps the
// deadline-expiry counter and leaves the queue.
func TestDeadlineHeader(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5, MaxConcurrent: 1, QueueTimeout: time.Minute})
	release := holdSlot(t, s)
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
	if depth := s.gate.queueDepth.Load(); depth != 0 {
		t.Fatalf("queue depth = %d after the deadline, want 0", depth)
	}
	release()
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

// TestClientDisconnect499 cancels the request context while it waits
// for an evaluator slot — the serving layer's view of a client hangup
// — and demands the 499 convention plus the canceled counter.
func TestClientDisconnect499(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5, MaxConcurrent: 1, QueueTimeout: time.Minute})
	release := holdSlot(t, s)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}),
			func(r *http.Request) { *r = *r.WithContext(ctx) })
	}()
	waitQueued(t, s)
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

// TestEvaluatorPanicRecovered makes one evaluation panic and demands
// the daemon answer 500, count it, discard the poisoned evaluator
// instead of returning it to the pool, and keep serving.
func TestEvaluatorPanicRecovered(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	panicked := false
	s.evalHook = func() {
		if !panicked {
			panicked = true
			panic("injected evaluator panic")
		}
	}
	compiles := func() uint64 {
		var stats StatsResponse
		do(t, s, http.MethodGet, "/v1/stats", "", &stats)
		return stats.Mappings[0].PoolCompiles
	}
	if got := compiles(); got != 1 {
		t.Fatalf("pool compiles after load = %d, want 1", got)
	}
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
	// The daemon survives and serves the same key correctly afterwards,
	// on a freshly compiled evaluator: the panicked one was dropped.
	w = doReq(s, http.MethodPost, "/v1/predict", predictBody("toy", map[string]int{"add": 1}), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d: %s", w.Code, w.Body.String())
	}
	if got := compiles(); got != 2 {
		t.Fatalf("pool compiles after the panic = %d, want 2 (panicked evaluator re-pooled?)", got)
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

// TestReloadGenerations covers the reload protocol: generation bumps,
// fingerprint-identical reloads keep the LRU warm, changed mappings
// drop it, and a mapping that fails validation or the smoke check
// leaves the previous generation serving untouched.
func TestReloadGenerations(t *testing.T) {
	s := New(Config{Rmax: 5})
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	if gen := s.state().mappings["toy"].generation; gen != 1 {
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
	if gen := s.state().mappings["toy"].generation; gen != 3 {
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
	for _, field := range []string{"generation", "fingerprint"} {
		if _, ok := m[field]; !ok {
			t.Fatalf("mapping stats missing %q", field)
		}
	}
}

// TestEndedContextTakesOnlyCacheHits pins the rule for a request whose
// context has already ended when it reaches predict: an LRU hit still
// answers 200 with cached: true, because answering from the cache costs
// nothing, while a miss answers 504 without taking a gate slot or an
// evaluation.
func TestEndedContextTakesOnlyCacheHits(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	hot := predictBody("toy", map[string]int{"add": 1})
	if w := doReq(s, http.MethodPost, "/v1/predict", hot, nil); w.Code != http.StatusOK {
		t.Fatalf("warm-up status = %d: %s", w.Code, w.Body.String())
	}
	h := s.state().mappings["toy"]
	admitted, evals := s.gate.stats().Admitted, h.evals.Load()

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
}
