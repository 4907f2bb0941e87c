// Package serve is the port-mapping-as-a-service layer: an HTTP/JSON
// front end over inferred port mappings, turning the batch research
// pipeline's output (zeninfer's mapping.json) into an analysis
// service in the spirit of pmtestbench's analyze-bb.py and the
// uops.info lookup service. It answers
//
//   - basic-block / experiment throughput predictions (POST
//     /v1/predict), bit-identical to the batch evaluator cmd/zeneval
//     uses (both run portmodel.Compiled over the same mapping);
//   - per-scheme port-usage explanations with a bottleneck-set
//     witness (POST /v1/explain), the paper's explainability artifact;
//   - structural diffs between two loaded mappings (GET/POST
//     /v1/diff), e.g. two inference runs or two machine generations.
//
// The serving hot path is one LRU probe, then at most one gated
// evaluation:
//
//   - a bounded per-mapping LRU over canonical experiment keys (the
//     engine's cache identity), so hot blocks are answered without
//     touching the pool at all;
//   - on a miss, an evaluator pool (evalPool): portmodel.Compiled is
//     single-goroutine by contract, so every in-flight request
//     borrows an exclusive evaluator from a bounded free list — no
//     locks on the evaluation itself, no shared scratch state,
//     race-detector clean at any concurrency.
//
// Concurrent identical misses are not coalesced: one evaluation takes
// a few microseconds, and a load replay coalesced none of 300,000.
//
// An evaluation of input that experimentOf accepted cannot fail and
// takes microseconds, so the only wait worth bounding is the admission
// queue. Around the hot path sit (see admission.go, reload.go):
//
//   - admission control: evaluator work runs behind a bounded-
//     concurrency, bounded-queue gate; a request that finds the queue
//     full, or waits in it past QueueTimeout, is shed with 429 +
//     Retry-After instead of queuing unboundedly (cache hits bypass
//     the gate entirely);
//   - the request context: a client may shorten its own wait with the
//     X-Zenport-Deadline header and gets 504 when that deadline passes
//     in the queue; a client that disconnects gets 499;
//   - panic isolation: a per-request recover converts any handler or
//     evaluator panic into a 500 + counter instead of killing the
//     daemon, and a panicked evaluator is discarded, never re-pooled;
//   - hot mapping reload with validate-then-atomic-swap semantics
//     (Server.Reload, POST /admin/reload loopback-only, SIGHUP in
//     cmd/zenportd).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/zen"
)

// Defaults for the Config zero value.
const (
	// DefaultCacheSize is the per-mapping prediction LRU capacity.
	DefaultCacheSize = 4096
	// DefaultMaxBodyBytes caps a request body at 1 MiB.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxConcurrent bounds concurrent evaluator work.
	DefaultMaxConcurrent = 64
	// DefaultMaxQueue bounds requests waiting for an evaluator slot.
	DefaultMaxQueue = 256
	// DefaultQueueTimeout sheds requests queued longer than this.
	DefaultQueueTimeout = 100 * time.Millisecond
	// DefaultRetryAfter is the Retry-After hint on shed responses.
	DefaultRetryAfter = time.Second
)

// StatusClientClosedRequest is the nginx-convention 499 status the
// server records when the client disconnected before the response —
// distinct from 504, which is the client's own deadline header.
const StatusClientClosedRequest = 499

// DeadlineHeader is the request header carrying the client's deadline
// budget as a Go duration string ("250ms").
const DeadlineHeader = "X-Zenport-Deadline"

// Config tunes a Server. The zero value serves with the defaults
// above, no frontend bound, and no logging.
type Config struct {
	// Rmax is the frontend/retire bottleneck in instructions per cycle
	// applied to bounded predictions and IPC (0 = no bound). It must
	// match the batch evaluator's setting for predictions to be
	// byte-identical (the Zen+ machine uses 5).
	Rmax float64
	// CacheSize bounds each mapping's prediction LRU (0 = default).
	CacheSize int
	// MaxBodyBytes bounds request bodies (0 = default 1 MiB).
	MaxBodyBytes int64
	// MaxConcurrent bounds concurrent evaluator work (0 = default 64).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an evaluator slot
	// (0 = default 256; negative = no queue, shed immediately).
	MaxQueue int
	// QueueTimeout sheds requests queued longer than this
	// (0 = default 100ms).
	QueueTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429 responses
	// (0 = default 1s).
	RetryAfter time.Duration
	// Log, if non-nil, receives one-line request notices.
	Log func(format string, args ...any)
}

// Server is the HTTP handler serving one or more loaded mappings.
// Load and Reload are safe to call concurrently with serving: the
// mapping set is an immutable snapshot behind an atomic pointer, so a
// request resolves its mapping handle exactly once and never observes
// a half-swapped state.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time
	gate  *gate

	// loadMu serializes Load/Reload; st is the immutable serving state.
	loadMu sync.Mutex
	st     atomic.Pointer[svcState]

	requests  atomic.Uint64
	errs      atomic.Uint64
	panics    atomic.Uint64
	canceled  atomic.Uint64
	deadlines atomic.Uint64
	reloads   atomic.Uint64

	// evalHook, if non-nil, runs inside every pooled evaluation's
	// recover. Only tests set it, to make an evaluation stall or panic.
	evalHook func()
}

// svcState is one immutable snapshot of the loaded mappings. Reloads
// build a new snapshot and swap the pointer; they never mutate one.
type svcState struct {
	mappings map[string]*handle
	names    []string // sorted mapping names
}

// state returns the current serving snapshot.
func (s *Server) state() *svcState { return s.st.Load() }

// handle is one loaded mapping generation with its serving machinery.
// A handle is immutable after construction: requests that resolved it
// before a reload drain safely on it.
type handle struct {
	s           *Server
	name        string
	m           *portmodel.Mapping
	fingerprint string
	generation  uint64
	keys        []string // sorted scheme keys, the suggestion universe
	pool        *evalPool
	cache       *lruCache[portmodel.Evaluation]

	evals atomic.Uint64 // pool evaluations (cache misses)
}

// New returns a server with no mappings loaded.
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{cfg: cfg, start: time.Now()}
	s.gate = newGate(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout)
	s.st.Store(&svcState{mappings: make(map[string]*handle)})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/mappings", s.handleMappings)
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/diff", s.handleDiff)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/admin/reload", s.handleAdminReload)
	return s
}

// Load registers a mapping under a name, validating that it compiles
// and answers the smoke probe. Loading a duplicate name is an error;
// use Reload to replace a generation. Safe concurrently with serving.
func (s *Server) Load(name string, m *portmodel.Mapping) error {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if _, dup := s.state().mappings[name]; dup {
		return fmt.Errorf("serve: mapping %q already loaded", name)
	}
	h, err := s.buildHandle(name, m, 1, nil)
	if err != nil {
		return err
	}
	s.install(h)
	return nil
}

// ServeHTTP implements http.Handler. Every request runs under a
// recover: a panicking handler answers 500 and bumps a counter
// instead of killing the daemon (http.Server would only kill the one
// goroutine, but an embedder without its own recover — or a panic in
// a non-HTTP path — must not take the process down either way).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler { // deliberate connection abort
				panic(rec)
			}
			s.panics.Add(1)
			s.writeError(w, errf(http.StatusInternalServerError, "serve: handler panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// httpError is an error with a fixed HTTP status and a stable,
// test-asserted message.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; > 0 sets the Retry-After header
}

// Error implements error.
func (e *httpError) Error() string { return e.msg }

// errf builds an httpError.
func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// retryAfterSeconds renders the configured Retry-After hint.
func (s *Server) retryAfterSeconds() int {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shedError converts a gate sentinel into its stable HTTP error;
// context errors pass through untouched so writeError can distinguish
// deadline from disconnect.
func (s *Server) shedError(err error) error {
	switch {
	case errors.Is(err, errGateFull):
		return &httpError{status: http.StatusTooManyRequests,
			msg: "serve: overloaded: queue full, request shed", retryAfter: s.retryAfterSeconds()}
	case errors.Is(err, errGateTimeout):
		return &httpError{status: http.StatusTooManyRequests,
			msg: "serve: overloaded: queued past deadline, request shed", retryAfter: s.retryAfterSeconds()}
	}
	return err
}

// writeError emits the JSON error envelope. Context errors are
// classified: the client's deadline header answers 504 Gateway
// Timeout, a client disconnect answers the 499 convention — the
// distinction operators need when a latency alarm fires.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.errs.Add(1)
	he := &httpError{status: http.StatusInternalServerError, msg: "serve: internal error: " + err.Error()}
	var known *httpError
	switch {
	case errors.As(err, &known):
		he = known
	case errors.Is(err, context.DeadlineExceeded):
		he = &httpError{status: http.StatusGatewayTimeout, msg: "serve: deadline exceeded"}
	case errors.Is(err, context.Canceled):
		he = &httpError{status: StatusClientClosedRequest, msg: "serve: request canceled by client"}
	}
	switch he.status {
	case http.StatusGatewayTimeout:
		s.deadlines.Add(1)
	case StatusClientClosedRequest:
		s.canceled.Add(1)
	}
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": he.msg})
	if s.cfg.Log != nil {
		s.cfg.Log("serve: error %d: %s", he.status, he.msg)
	}
}

// jsonBufs recycles writeJSON's encode buffers, so encoding before
// writing costs a copy per response rather than an allocation.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON emits a 200 JSON response. The body is encoded before
// anything is written, so a value JSON cannot represent (a +Inf, say)
// answers a 500 instead of a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.writeError(w, errf(http.StatusInternalServerError, "serve: response not representable as JSON"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client is gone; nothing is left to report.
	_, _ = w.Write(buf.Bytes())
}

// requireMethod rejects other HTTP methods with a stable message.
func requireMethod(r *http.Request, methods ...string) error {
	for _, m := range methods {
		if r.Method == m {
			return nil
		}
	}
	return errf(http.StatusMethodNotAllowed, "serve: method %q not allowed on %s", r.Method, r.URL.Path)
}

// decodeJSON reads the request body into v under the configured size
// cap, mapping decode failures to the stable error strings the
// handler tests assert.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errf(http.StatusRequestEntityTooLarge, "serve: request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return errf(http.StatusBadRequest, "serve: malformed JSON request body")
	}
	return nil
}

// requestContext derives the request's context: the client's own
// X-Zenport-Deadline budget when it sends one. The context is also
// canceled when the client disconnects, which is what lets a dead
// request leave the admission queue.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	hv := r.Header.Get(DeadlineHeader)
	if hv == "" {
		return r.Context(), func() {}, nil
	}
	d, err := time.ParseDuration(hv)
	if err != nil || d <= 0 {
		return nil, nil, errf(http.StatusBadRequest, "serve: invalid %s %q", DeadlineHeader, hv)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// lookup resolves a mapping name to its handle in the current
// snapshot. The handle stays valid for the whole request even if a
// reload swaps the snapshot mid-flight.
func (s *Server) lookup(name string) (*handle, error) {
	if name == "" {
		return nil, errf(http.StatusBadRequest, "serve: missing mapping name")
	}
	st := s.state()
	h, ok := st.mappings[name]
	if !ok {
		return nil, errf(http.StatusNotFound, "serve: mapping %q not loaded (loaded: %s)",
			name, strings.Join(st.names, ", "))
	}
	return h, nil
}

// ParseKernel parses the CLI kernel syntax "N*key; M*key" (the format
// zenmap -predict uses) into an experiment. Scheme keys contain
// commas, so terms are ';'-separated. Repeated terms add up; a sum
// that overflows an int is an error.
func ParseKernel(sr string) (portmodel.Experiment, error) {
	e := portmodel.Experiment{}
	for _, t := range strings.Split(sr, ";") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		count := 1
		if i := strings.Index(t, "*"); i > 0 {
			if n, err := strconv.Atoi(strings.TrimSpace(t[:i])); err == nil {
				count = n
				t = strings.TrimSpace(t[i+1:])
			}
		}
		sum := e[t] + count
		if (count > 0 && sum < e[t]) || (count < 0 && sum > e[t]) {
			return nil, errf(http.StatusBadRequest, "serve: count of scheme %q overflows", t)
		}
		e[t] = sum
	}
	return e, nil
}

// experimentOf resolves the kernel-or-experiment pair of a request
// body into a validated experiment over the handle's mapping. Every
// input error is a 400 here, before the gate, and the evaluator cannot
// fail on what this accepts. Counts are checked after ParseKernel has
// summed repeated terms; the evaluator's weights are int32.
func (h *handle) experimentOf(kernel string, exp map[string]int) (portmodel.Experiment, error) {
	if kernel != "" && len(exp) > 0 {
		return nil, errf(http.StatusBadRequest, "serve: specify either kernel or experiment, not both")
	}
	e := portmodel.Experiment(exp)
	if kernel != "" {
		var err error
		if e, err = ParseKernel(kernel); err != nil {
			return nil, err
		}
	}
	total := 0
	for key, n := range e {
		if n < 0 {
			return nil, errf(http.StatusBadRequest, "serve: negative count %d for scheme %q", n, key)
		}
		if n > math.MaxInt32 {
			return nil, errf(http.StatusBadRequest, "serve: count %d for scheme %q exceeds %d", n, key, math.MaxInt32)
		}
		if n == 0 {
			continue
		}
		if _, ok := h.m.Usage[key]; !ok {
			if sugg := zen.SuggestKeys(h.keys, key, 3); len(sugg) > 0 {
				return nil, errf(http.StatusBadRequest, "serve: unknown scheme %q in mapping %q, did you mean %s?",
					key, h.name, strings.Join(sugg, ", "))
			}
			return nil, errf(http.StatusBadRequest, "serve: unknown scheme %q in mapping %q", key, h.name)
		}
		total += n
	}
	if total == 0 {
		return nil, errf(http.StatusBadRequest, "serve: empty experiment")
	}
	return e, nil
}

// predict resolves an experiment through the LRU, then the admission
// gate and evaluator pool, and reports whether the answer was an LRU
// hit. The canonical key — engine.CanonicalKey, the same identity the
// measurement cache uses — collapses permutations of the same
// multiset, so "add;mul" and "mul;add" share one cache entry. Cache
// hits bypass the gate entirely: a saturated daemon still answers its
// hot set, and so does a request whose context has already ended,
// which never takes a gate slot or an evaluator.
func (h *handle) predict(ctx context.Context, e portmodel.Experiment) (portmodel.Evaluation, bool, error) {
	key := engine.CanonicalKey(e)
	if p, ok := h.cache.get(key); ok {
		return p, true, nil
	}
	if err := ctx.Err(); err != nil {
		return portmodel.Evaluation{}, false, err
	}
	if err := h.s.gate.acquire(ctx); err != nil {
		return portmodel.Evaluation{}, false, h.s.shedError(err)
	}
	p, err := h.evaluate(e)
	h.s.gate.release()
	if err == nil {
		h.cache.add(key, p)
	}
	return p, false, err
}

// evaluate evaluates an experiment once on an exclusive pooled
// evaluator under panic isolation: a panicking evaluation answers an
// error and the evaluator is discarded (its scratch state is
// suspect), while a clean evaluation returns it to the pool. The
// evaluation is a pure function of (mapping, experiment), so cache
// sharing cannot change any served value; handlers derive the
// rmax-bounded values from it.
func (h *handle) evaluate(e portmodel.Experiment) (p portmodel.Evaluation, err error) {
	ev, err := h.pool.get()
	if err != nil {
		return portmodel.Evaluation{}, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			h.s.panics.Add(1)
			if h.s.cfg.Log != nil {
				h.s.cfg.Log("serve: recovered evaluator panic on mapping %q: %v", h.name, rec)
			}
			err = errf(http.StatusInternalServerError, "serve: evaluator panic: %v", rec)
			return // ev deliberately not pooled
		}
		h.pool.put(ev)
	}()
	if h.s.evalHook != nil {
		h.s.evalHook()
	}
	h.evals.Add(1)
	return ev.Evaluate(e)
}

// ---- wire types ----

// PredictRequest is the body of POST /v1/predict.
type PredictRequest struct {
	// Mapping names a loaded mapping.
	Mapping string `json:"mapping"`
	// Kernel is the CLI syntax "2*add GPR[32], GPR[32]; vpor XMM, XMM, XMM".
	Kernel string `json:"kernel,omitempty"`
	// Experiment is the explicit multiset form; exactly one of Kernel
	// and Experiment must be set.
	Experiment map[string]int `json:"experiment,omitempty"`
}

// Bottleneck is a bottleneck-set witness: the port set Q maximizing
// mass(Q)/|Q|, rendered both as a port list and a bitmask.
type Bottleneck struct {
	Ports []int   `json:"ports"`
	Mask  uint16  `json:"mask"`
	Width int     `json:"width"`
	Value float64 `json:"value"`
}

// PredictResponse is the answer of POST /v1/predict.
type PredictResponse struct {
	Mapping      string         `json:"mapping"`
	Experiment   map[string]int `json:"experiment"`
	Instructions int            `json:"instructions"`
	// InvThroughput is max(tp^-1, instructions/rmax) in cycles per
	// iteration — the value zenmap -predict prints.
	InvThroughput float64 `json:"inv_throughput"`
	// InvThroughputUnbounded is the pure port-model tp^-1.
	InvThroughputUnbounded float64 `json:"inv_throughput_unbounded"`
	// IPC is instructions per cycle under the rmax cap — the value
	// cmd/zeneval's predictors report, bit-identical.
	IPC        float64    `json:"ipc"`
	Rmax       float64    `json:"rmax"`
	Bottleneck Bottleneck `json:"bottleneck"`
	// Cached reports an LRU hit.
	Cached bool `json:"cached"`
}

// UopJSON is the wire form of one µop, matching mapping.json.
type UopJSON struct {
	Ports []int `json:"ports"`
	Count int   `json:"count"`
}

// SchemeUsage explains one scheme of an experiment.
type SchemeUsage struct {
	Key    string    `json:"key"`
	Count  int       `json:"count"`
	Uops   []UopJSON `json:"uops"`
	Pretty string    `json:"pretty"`
}

// ExplainRequest is the body of POST /v1/explain.
type ExplainRequest struct {
	Mapping    string         `json:"mapping"`
	Kernel     string         `json:"kernel,omitempty"`
	Experiment map[string]int `json:"experiment,omitempty"`
}

// ExplainResponse is the answer of POST /v1/explain: the per-scheme
// port usage of the experiment plus the bottleneck-set witness that
// proves the throughput bound — the paper's explainability artifact.
type ExplainResponse struct {
	Mapping       string         `json:"mapping"`
	Experiment    map[string]int `json:"experiment"`
	Instructions  int            `json:"instructions"`
	NumPorts      int            `json:"num_ports"`
	InvThroughput float64        `json:"inv_throughput"`
	Bottleneck    Bottleneck     `json:"bottleneck"`
	Schemes       []SchemeUsage  `json:"schemes"`
	Explanation   string         `json:"explanation"`
}

// DiffEntry is one scheme whose usage differs between two mappings.
type DiffEntry struct {
	Key     string    `json:"key"`
	A       []UopJSON `json:"a"`
	B       []UopJSON `json:"b"`
	APretty string    `json:"a_pretty"`
	BPretty string    `json:"b_pretty"`
}

// DiffResponse is the answer of /v1/diff.
type DiffResponse struct {
	A         string      `json:"a"`
	B         string      `json:"b"`
	NumPortsA int         `json:"num_ports_a"`
	NumPortsB int         `json:"num_ports_b"`
	SchemesA  int         `json:"schemes_a"`
	SchemesB  int         `json:"schemes_b"`
	OnlyA     []string    `json:"only_a"`
	OnlyB     []string    `json:"only_b"`
	Differing []DiffEntry `json:"differing"`
	Identical int         `json:"identical"`
}

// MappingInfo describes one loaded mapping.
type MappingInfo struct {
	Name     string  `json:"name"`
	NumPorts int     `json:"num_ports"`
	Schemes  int     `json:"schemes"`
	Rmax     float64 `json:"rmax"`
}

// CacheStats is one mapping's LRU counters.
type CacheStats struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// MappingStats is one mapping's serving counters.
type MappingStats struct {
	Name        string     `json:"name"`
	Cache       CacheStats `json:"cache"`
	Evaluations uint64     `json:"evaluations"`
	// Coalesced is always 0: serving no longer coalesces identical
	// misses. The field stays because the benchmark harness reads it
	// from this struct; it goes with the next change to the benchmark.
	Coalesced    uint64 `json:"coalesced"`
	PoolCompiles uint64 `json:"pool_compiles"`
	Generation   uint64 `json:"generation"`
	Fingerprint  string `json:"fingerprint"`
}

// StatsResponse is the answer of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds    float64        `json:"uptime_seconds"`
	Requests         uint64         `json:"requests"`
	Errors           uint64         `json:"errors"`
	Gate             GateStats      `json:"gate"`
	PanicsRecovered  uint64         `json:"panics_recovered"`
	DeadlineExpiries uint64         `json:"deadline_expiries"`
	Canceled         uint64         `json:"canceled"`
	Reloads          uint64         `json:"reloads"`
	Mappings         []MappingStats `json:"mappings"`
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if err := requireMethod(r, http.MethodGet); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, map[string]any{"status": "ok", "mappings": s.state().names})
}

func (s *Server) handleMappings(w http.ResponseWriter, r *http.Request) {
	if err := requireMethod(r, http.MethodGet); err != nil {
		s.writeError(w, err)
		return
	}
	st := s.state()
	out := make([]MappingInfo, 0, len(st.names))
	for _, name := range st.names {
		h := st.mappings[name]
		out = append(out, MappingInfo{Name: name, NumPorts: h.m.NumPorts, Schemes: len(h.keys), Rmax: s.cfg.Rmax})
	}
	s.writeJSON(w, out)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := s.predictCommon(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	h, err := s.lookup(req.Mapping)
	if err != nil {
		s.writeError(w, err)
		return
	}
	e, err := h.experimentOf(req.Kernel, req.Experiment)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, cached, err := h.predict(ctx, e)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ipc := p.IPC(s.cfg.Rmax)
	if math.IsInf(ipc, 0) {
		s.writeError(w, errf(http.StatusUnprocessableEntity,
			"serve: IPC is unbounded: the experiment has no µops and rmax sets no bound"))
		return
	}
	s.writeJSON(w, PredictResponse{
		Mapping:                h.name,
		Experiment:             e,
		Instructions:           p.Total,
		InvThroughput:          p.Bounded(s.cfg.Rmax),
		InvThroughputUnbounded: p.Inv,
		IPC:                    ipc,
		Rmax:                   s.cfg.Rmax,
		Bottleneck:             bottleneckOf(p),
		Cached:                 cached,
	})
}

// predictCommon factors the method check and body decode shared by
// predict and explain.
func (s *Server) predictCommon(w http.ResponseWriter, r *http.Request, v any) error {
	if err := requireMethod(r, http.MethodPost); err != nil {
		return err
	}
	return s.decodeJSON(w, r, v)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if err := s.predictCommon(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	h, err := s.lookup(req.Mapping)
	if err != nil {
		s.writeError(w, err)
		return
	}
	e, err := h.experimentOf(req.Kernel, req.Experiment)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, _, err := h.predict(ctx, e)
	if err != nil {
		s.writeError(w, err)
		return
	}
	bn := bottleneckOf(p)
	schemes := make([]SchemeUsage, 0, len(e))
	for _, key := range e.Keys() {
		if e[key] == 0 {
			continue
		}
		u, _ := h.m.Get(key)
		schemes = append(schemes, SchemeUsage{Key: key, Count: e[key], Uops: uopsJSON(u), Pretty: u.String()})
	}
	s.writeJSON(w, ExplainResponse{
		Mapping:       h.name,
		Experiment:    e,
		Instructions:  p.Total,
		NumPorts:      h.m.NumPorts,
		InvThroughput: p.Inv,
		Bottleneck:    bn,
		Schemes:       schemes,
		Explanation: fmt.Sprintf(
			"ports %v are the bottleneck: µop mass %.4g confined to them over %d port(s) gives tp⁻¹ = %.4g cycles/iteration",
			bn.Ports, p.Inv*float64(bn.Width), bn.Width, p.Inv),
	})
}

// DiffRequest is the body of POST /v1/diff (GET uses ?a=&b=).
type DiffRequest struct {
	A string `json:"a"`
	B string `json:"b"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	switch r.Method {
	case http.MethodGet:
		req.A, req.B = r.URL.Query().Get("a"), r.URL.Query().Get("b")
	case http.MethodPost:
		if err := s.decodeJSON(w, r, &req); err != nil {
			s.writeError(w, err)
			return
		}
	default:
		s.writeError(w, errf(http.StatusMethodNotAllowed, "serve: method %q not allowed on %s", r.Method, r.URL.Path))
		return
	}
	ha, err := s.lookup(req.A)
	if err != nil {
		s.writeError(w, err)
		return
	}
	hb, err := s.lookup(req.B)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := DiffResponse{
		A: ha.name, B: hb.name,
		NumPortsA: ha.m.NumPorts, NumPortsB: hb.m.NumPorts,
		SchemesA: len(ha.keys), SchemesB: len(hb.keys),
		OnlyA: []string{}, OnlyB: []string{}, Differing: []DiffEntry{},
	}
	for _, key := range ha.keys {
		ub, ok := hb.m.Get(key)
		if !ok {
			resp.OnlyA = append(resp.OnlyA, key)
			continue
		}
		ua, _ := ha.m.Get(key)
		if ua.Equal(ub) {
			resp.Identical++
			continue
		}
		resp.Differing = append(resp.Differing, DiffEntry{
			Key: key, A: uopsJSON(ua), B: uopsJSON(ub),
			APretty: ua.String(), BPretty: ub.String(),
		})
	}
	for _, key := range hb.keys {
		if _, ok := ha.m.Get(key); !ok {
			resp.OnlyB = append(resp.OnlyB, key)
		}
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if err := requireMethod(r, http.MethodGet); err != nil {
		s.writeError(w, err)
		return
	}
	st := s.state()
	out := StatsResponse{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         s.requests.Load(),
		Errors:           s.errs.Load(),
		Gate:             s.gate.stats(),
		PanicsRecovered:  s.panics.Load(),
		DeadlineExpiries: s.deadlines.Load(),
		Canceled:         s.canceled.Load(),
		Reloads:          s.reloads.Load(),
		Mappings:         make([]MappingStats, 0, len(st.names)),
	}
	for _, name := range st.names {
		h := st.mappings[name]
		entries, capacity, hits, misses := h.cache.stats()
		out.Mappings = append(out.Mappings, MappingStats{
			Name:         name,
			Cache:        CacheStats{Entries: entries, Capacity: capacity, Hits: hits, Misses: misses},
			Evaluations:  h.evals.Load(),
			PoolCompiles: h.pool.compiles.Load(),
			Generation:   h.generation,
			Fingerprint:  h.fingerprint,
		})
	}
	s.writeJSON(w, out)
}

// bottleneckOf renders an evaluation's witness.
func bottleneckOf(p portmodel.Evaluation) Bottleneck {
	return Bottleneck{
		Ports: p.Witness.Ports(),
		Mask:  uint16(p.Witness),
		Width: p.Witness.Size(),
		Value: p.Inv,
	}
}

// uopsJSON renders a usage in the mapping.json wire form.
func uopsJSON(u portmodel.Usage) []UopJSON {
	out := make([]UopJSON, 0, len(u))
	for _, x := range u.Clone().Normalize() {
		out = append(out, UopJSON{Ports: x.Ports.Ports(), Count: x.Count})
	}
	return out
}
