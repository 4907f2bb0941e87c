package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"zenport/internal/portmodel"
)

// FuzzPredictRequest drives arbitrary request bodies through
// Server.ServeHTTP on /v1/predict. No body may panic the handler or
// draw a 5xx, and every 200 must carry the inv_throughput bits of
// Compiled.InverseThroughputBounded on the experiment the request
// names (through ParseKernel for the kernel form). The corpus under
// testdata/fuzz/FuzzPredictRequest holds the request bodies of
// TestHandlerErrorPaths.
func FuzzPredictRequest(f *testing.F) {
	const rmax = 5.0
	f.Add([]byte(`{"mapping": "toy", "kernel": "2*add; mul; 3*store"}`))
	f.Add([]byte(`{"mapping": "toy2", "experiment": {"vadd": 2, "mul": 1, "add": 0}}`))
	s := New(Config{Rmax: rmax, MaxBodyBytes: 512})
	mappings := map[string]*portmodel.Mapping{"toy": toyMapping(), "toy2": toyMapping2()}
	for name, m := range mappings {
		if err := s.Load(name, m); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if w.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body.String())
		}
		if w.Code != http.StatusOK {
			return
		}
		var req PredictRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("body %q served 200 but does not decode: %v", body, err)
		}
		e := portmodel.Experiment(req.Experiment)
		if req.Kernel != "" {
			var err error
			if e, err = ParseKernel(req.Kernel); err != nil {
				t.Fatalf("body %q served 200 but its kernel does not parse: %v", body, err)
			}
		}
		m, ok := mappings[req.Mapping]
		if !ok {
			t.Fatalf("body %q served 200 for unloaded mapping %q", body, req.Mapping)
		}
		comp, err := portmodel.CompileMapping(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := comp.InverseThroughputBounded(e, rmax)
		if err != nil {
			t.Fatalf("body %q served 200 but the evaluator rejects %v: %v", body, e, err)
		}
		var resp PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: bad response JSON %q: %v", body, w.Body.String(), err)
		}
		if math.Float64bits(resp.InvThroughput) != math.Float64bits(want) {
			t.Fatalf("body %q: inv_throughput %v, evaluator %v", body, resp.InvThroughput, want)
		}
	})
}
