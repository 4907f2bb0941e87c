package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"zenport/internal/portmodel"
)

// raceMapping builds a wider mapping so concurrent evaluations do real
// work (8 ports, 40 schemes).
func raceMapping(t *testing.T) *portmodel.Mapping {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	m := portmodel.NewMapping(8)
	for i := 0; i < 40; i++ {
		u := portmodel.Usage{}
		for j := 0; j <= rng.Intn(3); j++ {
			var ps portmodel.PortSet
			for ps == 0 {
				ps = portmodel.PortSet(rng.Intn(1 << 8))
			}
			u = append(u, portmodel.Uop{Ports: ps, Count: 1 + rng.Intn(2)})
		}
		m.Set(fmt.Sprintf("op-%02d", i), u)
	}
	return m
}

// TestEvalPoolConcurrent is the race-detector regression test for the
// evaluator pool: portmodel.Compiled is single-goroutine by contract,
// and the bug class this guards against is two handlers sharing one
// compiled evaluator (its scratch vectors are unsynchronized — the
// race detector flags that immediately). 64 goroutines hammer
// the pool directly and every result is checked bit-identical to the
// reference evaluator, so both exclusivity and correctness are
// exercised. Run with -race; the Makefile race target includes this
// package.
func TestEvalPoolConcurrent(t *testing.T) {
	m := raceMapping(t)
	pool, err := newEvalPool(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := m.Keys()

	// Precompute reference answers single-threaded.
	const distinct = 60
	exps := make([]portmodel.Experiment, distinct)
	want := make([]float64, distinct)
	rng := rand.New(rand.NewSource(5))
	for i := range exps {
		e := portmodel.Experiment{}
		for j := 0; j <= rng.Intn(3); j++ {
			e[keys[rng.Intn(len(keys))]] += 1 + rng.Intn(4)
		}
		e[keys[i%len(keys)]] += i + 1
		exps[i] = e
		if want[i], err = m.InverseThroughput(e); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 64
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				idx := rng.Intn(distinct)
				ev, err := pool.get()
				if err != nil {
					errs <- err
					return
				}
				got, err := ev.InverseThroughput(exps[idx])
				pool.put(ev)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[idx]) {
					errs <- fmt.Errorf("goroutine %d: experiment %d: %v != %v", g, idx, got, want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerConcurrentHammer drives the full HTTP stack — decode,
// LRU, gate, evaluator pool — from 64 goroutines with a
// deliberately overlapping query stream, checking every served
// prediction bit-identical to the reference evaluator.
func TestServerConcurrentHammer(t *testing.T) {
	const rmax = 5.0
	m := raceMapping(t)
	s := New(Config{Rmax: rmax, CacheSize: 32}) // small LRU to force evictions
	if err := s.Load("zen", m); err != nil {
		t.Fatal(err)
	}
	keys := m.Keys()

	const distinct = 48
	exps := make([]portmodel.Experiment, distinct)
	want := make([]float64, distinct)
	rng := rand.New(rand.NewSource(9))
	for i := range exps {
		e := portmodel.Experiment{}
		for j := 0; j <= rng.Intn(2); j++ {
			e[keys[rng.Intn(len(keys))]] += 1 + rng.Intn(3)
		}
		e[keys[i%len(keys)]] += i + 1
		exps[i] = e
		var err error
		if want[i], err = m.InverseThroughputBounded(e, rmax); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 64
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < iters; i++ {
				idx := rng.Intn(distinct)
				body, _ := json.Marshal(PredictRequest{Mapping: "zen", Experiment: exps[idx]})
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d: %s", g, w.Code, w.Body.String())
					return
				}
				var resp PredictResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- err
					return
				}
				if math.Float64bits(resp.InvThroughput) != math.Float64bits(want[idx]) {
					errs <- fmt.Errorf("goroutine %d: experiment %d: served %v != reference %v",
						g, idx, resp.InvThroughput, want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each request takes one path: an LRU hit, or a miss that
	// evaluates exactly once.
	h := s.state().mappings["zen"]
	_, _, hits, misses := h.cache.stats()
	if total := uint64(goroutines * iters); hits+misses != total {
		t.Fatalf("LRU hits %d + misses %d != %d requests", hits, misses, total)
	}
	if evals := h.evals.Load(); evals != misses {
		t.Fatalf("%d evaluations for %d LRU misses", evals, misses)
	}
}
