package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"zenport/internal/portmodel"
)

// toyMapping is the primary test mapping: 6 ports, 4 schemes.
func toyMapping() *portmodel.Mapping {
	m := portmodel.NewMapping(6)
	m.Set("add", portmodel.Usage{{Ports: portmodel.MakePortSet(0, 1, 2), Count: 1}})
	m.Set("mul", portmodel.Usage{{Ports: portmodel.MakePortSet(3), Count: 1}})
	m.Set("store", portmodel.Usage{
		{Ports: portmodel.MakePortSet(4, 5), Count: 1},
		{Ports: portmodel.MakePortSet(5), Count: 1},
	})
	m.Set("shuf", portmodel.Usage{{Ports: portmodel.MakePortSet(1, 2), Count: 1}})
	return m
}

// toyMapping2 is a variant for diff tests: mul differs, shuf is gone,
// vadd is new.
func toyMapping2() *portmodel.Mapping {
	m := portmodel.NewMapping(6)
	m.Set("add", portmodel.Usage{{Ports: portmodel.MakePortSet(0, 1, 2), Count: 1}})
	m.Set("mul", portmodel.Usage{{Ports: portmodel.MakePortSet(3, 4), Count: 1}})
	m.Set("store", portmodel.Usage{
		{Ports: portmodel.MakePortSet(4, 5), Count: 1},
		{Ports: portmodel.MakePortSet(5), Count: 1},
	})
	m.Set("vadd", portmodel.Usage{{Ports: portmodel.MakePortSet(0, 3), Count: 1}})
	return m
}

// newTestServer builds a server with mappings "toy" and "toy2".
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("toy2", toyMapping2()); err != nil {
		t.Fatal(err)
	}
	return s
}

// do issues one request and decodes the JSON response into out.
func do(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

// TestHandlerErrorPaths is the satellite's table-driven sweep over the
// failure modes of the HTTP API, asserting both status codes and the
// stable error strings clients are allowed to match on.
func TestHandlerErrorPaths(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5, MaxBodyBytes: 512})
	// noRmax serves a mapping with a zero-µop scheme and no frontend
	// bound, the zenportd -rmax 0 configuration.
	noRmax := New(Config{})
	withNop := toyMapping()
	withNop.Set("nop", nil)
	if err := noRmax.Load("toy", withNop); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		srv        *Server // nil = s
		method     string
		path       string
		body       string
		wantStatus int
		wantErr    string
	}{
		{
			name:   "malformed JSON",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernel": `,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: malformed JSON request body",
		},
		{
			name:   "unknown request field",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernle": "add"}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: malformed JSON request body",
		},
		{
			// lp_check (a simplex recomputation of inv_throughput) was
			// removed; a stale client gets the unknown-field error.
			name:   "retired lp_check field",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernel": "add", "lp_check": true}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: malformed JSON request body",
		},
		{
			name:   "mapping not loaded",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "zen5", "kernel": "add"}`,
			wantStatus: http.StatusNotFound,
			wantErr:    `serve: mapping "zen5" not loaded (loaded: toy, toy2)`,
		},
		{
			name:   "missing mapping name",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"kernel": "add"}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: missing mapping name",
		},
		{
			name:   "unknown scheme with suggestion",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernel": "adq"}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: unknown scheme "adq" in mapping "toy", did you mean "add"?`,
		},
		{
			name:   "unknown scheme in experiment form",
			method: http.MethodPost, path: "/v1/explain",
			body:       `{"mapping": "toy", "experiment": {"mol": 2}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: unknown scheme "mol" in mapping "toy", did you mean "mul"?`,
		},
		{
			name:   "empty experiment",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "experiment": {}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: empty experiment",
		},
		{
			name:   "blank kernel",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernel": " ;  ; "}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: empty experiment",
		},
		{
			name:   "all-zero counts",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "experiment": {"add": 0, "mul": 0}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: empty experiment",
		},
		{
			name:   "negative count",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "experiment": {"add": -3}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: negative count -3 for scheme "add"`,
		},
		{
			// The evaluator's weights are int32: 4294967296 would
			// truncate to 0 and answer tp⁻¹ = 0.
			name:   "count above int32 range in experiment form",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "experiment": {"add": 4294967296}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: count 4294967296 for scheme "add" exceeds 2147483647`,
		},
		{
			// The range is checked after repeated terms are summed.
			name:   "count above int32 range in kernel form",
			method: http.MethodPost, path: "/v1/explain",
			body:       `{"mapping": "toy", "kernel": "2147483647*add; add"}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: count 2147483648 for scheme "add" exceeds 2147483647`,
		},
		{
			// Without the overflow check the sum wraps to 1.
			name:   "kernel count sum overflows",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernel": "9223372036854775807*add; 9223372036854775807*add; 3*add"}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: count of scheme "add" overflows`,
		},
		{
			// IPC is +Inf, which JSON cannot carry.
			name: "unbounded IPC", srv: noRmax,
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "experiment": {"nop": 1}}`,
			wantStatus: http.StatusUnprocessableEntity,
			wantErr:    "serve: IPC is unbounded: the experiment has no µops and rmax sets no bound",
		},
		{
			name:   "kernel and experiment together",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernel": "add", "experiment": {"mul": 1}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: specify either kernel or experiment, not both",
		},
		{
			name:   "oversized request body",
			method: http.MethodPost, path: "/v1/predict",
			body:       `{"mapping": "toy", "kernel": "` + strings.Repeat("a", 600) + `"}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantErr:    "serve: request body exceeds 512 bytes",
		},
		{
			name:   "wrong method on predict",
			method: http.MethodGet, path: "/v1/predict",
			wantStatus: http.StatusMethodNotAllowed,
			wantErr:    `serve: method "GET" not allowed on /v1/predict`,
		},
		{
			name:   "wrong method on stats",
			method: http.MethodPost, path: "/v1/stats",
			body:       `{}`,
			wantStatus: http.StatusMethodNotAllowed,
			wantErr:    `serve: method "POST" not allowed on /v1/stats`,
		},
		{
			name:   "diff with unknown mapping",
			method: http.MethodGet, path: "/v1/diff?a=toy&b=zen5",
			wantStatus: http.StatusNotFound,
			wantErr:    `serve: mapping "zen5" not loaded (loaded: toy, toy2)`,
		},
		{
			name:   "diff with missing name",
			method: http.MethodGet, path: "/v1/diff?a=toy",
			wantStatus: http.StatusBadRequest,
			wantErr:    "serve: missing mapping name",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env struct {
				Error string `json:"error"`
			}
			srv := tc.srv
			if srv == nil {
				srv = s
			}
			w := do(t, srv, tc.method, tc.path, tc.body, &env)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", w.Code, tc.wantStatus, w.Body.String())
			}
			if env.Error != tc.wantErr {
				t.Fatalf("error = %q, want %q", env.Error, tc.wantErr)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
		})
	}
}

// TestPredictMatchesReference asserts served predictions are
// bit-identical to the reference evaluator over the same mapping —
// the property that makes the daemon a drop-in for batch zeneval.
func TestPredictMatchesReference(t *testing.T) {
	const rmax = 5.0
	s := newTestServer(t, Config{Rmax: rmax})
	m := toyMapping()
	exps := []portmodel.Experiment{
		{"add": 1},
		{"add": 7, "mul": 2},
		{"store": 3, "shuf": 1},
		{"add": 2, "mul": 2, "store": 2, "shuf": 2},
		{"add": 100},
	}
	for i, e := range exps {
		body, _ := json.Marshal(PredictRequest{Mapping: "toy", Experiment: e})
		var resp PredictResponse
		w := do(t, s, http.MethodPost, "/v1/predict", string(body), &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("experiment %d: status %d: %s", i, w.Code, w.Body.String())
		}
		wantInv, err := m.InverseThroughputBounded(e, rmax)
		if err != nil {
			t.Fatal(err)
		}
		wantUnb, err := m.InverseThroughput(e)
		if err != nil {
			t.Fatal(err)
		}
		wantIPC, err := m.IPC(e, rmax)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, wantV, err := m.BottleneckWitness(e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(resp.InvThroughput) != math.Float64bits(wantInv) {
			t.Fatalf("experiment %d: inv %v != reference %v", i, resp.InvThroughput, wantInv)
		}
		if math.Float64bits(resp.InvThroughputUnbounded) != math.Float64bits(wantUnb) {
			t.Fatalf("experiment %d: unbounded inv %v != reference %v", i, resp.InvThroughputUnbounded, wantUnb)
		}
		if math.Float64bits(resp.IPC) != math.Float64bits(wantIPC) {
			t.Fatalf("experiment %d: ipc %v != reference %v", i, resp.IPC, wantIPC)
		}
		if resp.Bottleneck.Mask != uint16(wantQ) || math.Float64bits(resp.Bottleneck.Value) != math.Float64bits(wantV) {
			t.Fatalf("experiment %d: witness (%#x,%v) != reference (%#x,%v)",
				i, resp.Bottleneck.Mask, resp.Bottleneck.Value, uint16(wantQ), wantV)
		}
		if resp.Instructions != e.Len() {
			t.Fatalf("experiment %d: instructions %d != %d", i, resp.Instructions, e.Len())
		}
		if resp.Cached {
			t.Fatalf("experiment %d: first query reported cached", i)
		}
	}

	// Re-issue the first experiment: the LRU must answer, and the
	// cached answer must be the same bits.
	body, _ := json.Marshal(PredictRequest{Mapping: "toy", Experiment: exps[0]})
	var resp PredictResponse
	do(t, s, http.MethodPost, "/v1/predict", string(body), &resp)
	if !resp.Cached {
		t.Fatal("repeat query not served from cache")
	}
	wantInv, _ := m.InverseThroughputBounded(exps[0], rmax)
	if math.Float64bits(resp.InvThroughput) != math.Float64bits(wantInv) {
		t.Fatalf("cached inv %v != reference %v", resp.InvThroughput, wantInv)
	}
}

// TestPredictKernelForm asserts the CLI kernel syntax and the explicit
// experiment form hit the same cache entry (canonical-key identity).
func TestPredictKernelForm(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	var a, b, c PredictResponse
	do(t, s, http.MethodPost, "/v1/predict", `{"mapping":"toy","kernel":"2*add; mul"}`, &a)
	do(t, s, http.MethodPost, "/v1/predict", `{"mapping":"toy","experiment":{"add":2,"mul":1}}`, &b)
	do(t, s, http.MethodPost, "/v1/predict", `{"mapping":"toy","kernel":"mul; add; add"}`, &c)
	if math.Float64bits(a.InvThroughput) != math.Float64bits(b.InvThroughput) {
		t.Fatalf("kernel form %v != experiment form %v", a.InvThroughput, b.InvThroughput)
	}
	if a.Cached || !b.Cached || !c.Cached {
		t.Fatalf("canonical-key sharing broken: cached flags %v %v %v", a.Cached, b.Cached, c.Cached)
	}
}

// TestExplain asserts the explanation lists every scheme's port usage
// and a consistent bottleneck witness.
func TestExplain(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	m := toyMapping()
	var resp ExplainResponse
	w := do(t, s, http.MethodPost, "/v1/explain", `{"mapping":"toy","experiment":{"store":4,"add":1}}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.NumPorts != 6 {
		t.Fatalf("num_ports = %d, want 6", resp.NumPorts)
	}
	if len(resp.Schemes) != 2 {
		t.Fatalf("schemes = %d, want 2", len(resp.Schemes))
	}
	// Keys come back sorted (Experiment.Keys order).
	if resp.Schemes[0].Key != "add" || resp.Schemes[1].Key != "store" {
		t.Fatalf("scheme order %q, %q", resp.Schemes[0].Key, resp.Schemes[1].Key)
	}
	if resp.Schemes[1].Count != 4 || len(resp.Schemes[1].Uops) != 2 {
		t.Fatalf("store usage: count %d, %d uop kinds", resp.Schemes[1].Count, len(resp.Schemes[1].Uops))
	}
	wantQ, wantV, err := m.BottleneckWitness(portmodel.Experiment{"store": 4, "add": 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Bottleneck.Mask != uint16(wantQ) || math.Float64bits(resp.Bottleneck.Value) != math.Float64bits(wantV) {
		t.Fatalf("witness (%#x,%v), want (%#x,%v)", resp.Bottleneck.Mask, resp.Bottleneck.Value, uint16(wantQ), wantV)
	}
	if resp.Explanation == "" || !strings.Contains(resp.Explanation, "bottleneck") {
		t.Fatalf("unhelpful explanation %q", resp.Explanation)
	}
}

// TestDiff asserts the structural diff between the two test mappings.
func TestDiff(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		var resp DiffResponse
		var w *httptest.ResponseRecorder
		if method == http.MethodGet {
			w = do(t, s, method, "/v1/diff?a=toy&b=toy2", "", &resp)
		} else {
			w = do(t, s, method, "/v1/diff", `{"a":"toy","b":"toy2"}`, &resp)
		}
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, w.Code, w.Body.String())
		}
		if fmt.Sprint(resp.OnlyA) != "[shuf]" || fmt.Sprint(resp.OnlyB) != "[vadd]" {
			t.Fatalf("%s: only_a %v, only_b %v", method, resp.OnlyA, resp.OnlyB)
		}
		if len(resp.Differing) != 1 || resp.Differing[0].Key != "mul" {
			t.Fatalf("%s: differing %v", method, resp.Differing)
		}
		if resp.Identical != 2 {
			t.Fatalf("%s: identical = %d, want 2", method, resp.Identical)
		}
		if resp.Differing[0].APretty == resp.Differing[0].BPretty {
			t.Fatalf("%s: differing usages render identically: %q", method, resp.Differing[0].APretty)
		}
	}
}

// TestMappingsAndStats smoke-tests the introspection endpoints.
func TestMappingsAndStats(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	var infos []MappingInfo
	do(t, s, http.MethodGet, "/v1/mappings", "", &infos)
	if len(infos) != 2 || infos[0].Name != "toy" || infos[0].NumPorts != 6 || infos[0].Schemes != 4 {
		t.Fatalf("mappings = %+v", infos)
	}

	// Two identical predictions: one evaluation, one cache hit.
	do(t, s, http.MethodPost, "/v1/predict", `{"mapping":"toy","kernel":"add"}`, nil)
	do(t, s, http.MethodPost, "/v1/predict", `{"mapping":"toy","kernel":"add"}`, nil)

	var st StatsResponse
	do(t, s, http.MethodGet, "/v1/stats", "", &st)
	if st.Requests == 0 {
		t.Fatal("stats: no requests counted")
	}
	var toy *MappingStats
	for i := range st.Mappings {
		if st.Mappings[i].Name == "toy" {
			toy = &st.Mappings[i]
		}
	}
	if toy == nil {
		t.Fatal("stats: mapping toy missing")
	}
	if toy.Evaluations != 1 || toy.Cache.Hits != 1 {
		t.Fatalf("stats: evaluations %d (want 1), cache hits %d (want 1)", toy.Evaluations, toy.Cache.Hits)
	}

	var health struct {
		Status   string   `json:"status"`
		Mappings []string `json:"mappings"`
	}
	do(t, s, http.MethodGet, "/healthz", "", &health)
	if health.Status != "ok" || len(health.Mappings) != 2 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestEvalPoolSurvivesGC: pooled evaluators must outlive garbage
// collection. Each recompile costs the whole mapping, so a pool the GC
// can empty makes served latency depend on GC timing.
func TestEvalPoolSurvivesGC(t *testing.T) {
	s := newTestServer(t, Config{Rmax: 5})
	compiles := func() uint64 {
		var st StatsResponse
		do(t, s, http.MethodGet, "/v1/stats", "", &st)
		for _, m := range st.Mappings {
			if m.Name == "toy" {
				return m.PoolCompiles
			}
		}
		t.Fatal("stats: mapping toy missing")
		return 0
	}
	do(t, s, http.MethodPost, "/v1/predict", `{"mapping":"toy","kernel":"add"}`, nil)
	before := compiles()
	runtime.GC()
	runtime.GC()
	// A different kernel, so the LRU cannot answer it.
	do(t, s, http.MethodPost, "/v1/predict", `{"mapping":"toy","kernel":"2*add"}`, nil)
	if after := compiles(); after != before {
		t.Fatalf("pool compiles %d -> %d across two GCs, want no recompile", before, after)
	}
}

// TestLoadErrors covers the startup validation paths.
func TestLoadErrors(t *testing.T) {
	s := New(Config{})
	if err := s.Load("", toyMapping()); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Load("toy", toyMapping()); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("toy", toyMapping()); err == nil {
		t.Fatal("duplicate name accepted")
	}
	bad := portmodel.NewMapping(4)
	bad.Usage["broken"] = portmodel.Usage{{Ports: portmodel.MakePortSet(7), Count: 1}} // port 7 out of range
	if err := s.Load("bad", bad); err == nil {
		t.Fatal("invalid mapping accepted")
	}
}

// TestParseKernel pins the CLI kernel syntax.
func TestParseKernel(t *testing.T) {
	e, err := ParseKernel("2*add; mul ;  3 * store")
	if err != nil {
		t.Fatal(err)
	}
	want := portmodel.Experiment{"add": 2, "mul": 1, "store": 3}
	if len(e) != len(want) {
		t.Fatalf("parsed %v, want %v", e, want)
	}
	for k, n := range want {
		if e[k] != n {
			t.Fatalf("parsed %v, want %v", e, want)
		}
	}
}

// TestWriteJSONUnrepresentable checks that a value JSON cannot encode
// answers the stable 500 envelope, never a 200 with an empty body.
func TestWriteJSONUnrepresentable(t *testing.T) {
	s := New(Config{})
	w := httptest.NewRecorder()
	s.writeJSON(w, map[string]float64{"ipc": math.Inf(1)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", w.Code, w.Body.String())
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad error envelope %q: %v", w.Body.String(), err)
	}
	if want := "serve: response not representable as JSON"; env.Error != want {
		t.Fatalf("error = %q, want %q", env.Error, want)
	}
}
