package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zenport/internal/portmodel"
)

// TestGateFairnessUnderOverloadRace hammers a deliberately tiny gate
// (2 slots, 2 queue) from 64 goroutines with stalling evaluations.
// Every request must resolve to exactly 200 or 429 — never a hang,
// never a 5xx — every 200 must be bit-identical to the reference
// evaluator, the queue-depth high-water must respect the bound, and
// after the storm no slot may be leaked. Run with -race.
func TestGateFairnessUnderOverloadRace(t *testing.T) {
	const rmax = 5.0
	m := raceMapping(t)
	s := New(Config{
		Rmax:          rmax,
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueTimeout:  2 * time.Millisecond,
	})
	// A short stall in every evaluation so the gate actually saturates.
	s.evalHook = func() { time.Sleep(200 * time.Microsecond) }
	if err := s.Load("zen", m); err != nil {
		t.Fatal(err)
	}
	keys := m.Keys()

	const distinct = 40
	exps := make([]portmodel.Experiment, distinct)
	want := make([]float64, distinct)
	rng := rand.New(rand.NewSource(11))
	for i := range exps {
		e := portmodel.Experiment{keys[i%len(keys)]: i + 1}
		e[keys[rng.Intn(len(keys))]] += 1 + rng.Intn(3)
		exps[i] = e
		var err error
		if want[i], err = m.InverseThroughputBounded(e, rmax); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 64
	const iters = 30
	var served, shed atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < iters; i++ {
				idx := rng.Intn(distinct)
				body, _ := json.Marshal(PredictRequest{Mapping: "zen", Experiment: exps[idx]})
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				switch w.Code {
				case http.StatusOK:
					served.Add(1)
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
				case http.StatusTooManyRequests:
					shed.Add(1)
					if w.Header().Get("Retry-After") == "" {
						errs <- errors.New("shed response missing Retry-After")
						return
					}
				default:
					errs <- fmt.Errorf("goroutine %d: unexpected status %d: %s", g, w.Code, w.Body.String())
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
	if served.Load() == 0 {
		t.Fatal("overload shed everything: gate admitted no work")
	}
	gs := s.gate.stats()
	if gs.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", gs.QueueDepth)
	}
	if gs.QueueDepthHighWater > int64(s.cfg.MaxQueue) {
		t.Fatalf("queue depth high-water %d exceeds bound %d", gs.QueueDepthHighWater, s.cfg.MaxQueue)
	}
	// No leaked slots: with the storm over, a cold key must be admitted
	// on the fast path and answer 200.
	body, _ := json.Marshal(PredictRequest{Mapping: "zen", Experiment: portmodel.Experiment{keys[0]: 1000}})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("post-storm request: status %d: %s (leaked slot?)", w.Code, w.Body.String())
	}
}

// TestReloadDuringTrafficRace alternates reloads between two mappings
// that share keys but differ in content while 64 goroutines hammer
// predictions. The atomic-swap contract: every 200 is bit-identical to
// one of the two generations' references — a half-swapped handle would
// produce a value matching neither. Run with -race.
func TestReloadDuringTrafficRace(t *testing.T) {
	const rmax = 5.0
	mapA := raceMapping(t)
	keys := mapA.Keys()
	// mapB: same keys, every usage gets one extra µop on port 0, so
	// every prediction differs from mapA's.
	mapB := portmodel.NewMapping(mapA.NumPorts)
	for _, key := range keys {
		u, _ := mapA.Get(key)
		u = append(u.Clone(), portmodel.Uop{Ports: portmodel.MakePortSet(0), Count: 2})
		mapB.Set(key, u)
	}

	const distinct = 24
	exps := make([]portmodel.Experiment, distinct)
	wantA := make([]float64, distinct)
	wantB := make([]float64, distinct)
	for i := range exps {
		e := portmodel.Experiment{keys[i%len(keys)]: i + 1, keys[(i*7)%len(keys)]: 2}
		exps[i] = e
		var err error
		if wantA[i], err = mapA.InverseThroughputBounded(e, rmax); err != nil {
			t.Fatal(err)
		}
		if wantB[i], err = mapB.InverseThroughputBounded(e, rmax); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(wantA[i]) == math.Float64bits(wantB[i]) {
			t.Fatalf("experiment %d: generations indistinguishable (%v)", i, wantA[i])
		}
	}

	s := New(Config{Rmax: rmax})
	if err := s.Load("zen", mapA); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
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
				got := math.Float64bits(resp.InvThroughput)
				if got != math.Float64bits(wantA[idx]) && got != math.Float64bits(wantB[idx]) {
					errs <- fmt.Errorf("goroutine %d: experiment %d: served %v matches neither generation (%v / %v)",
						g, idx, resp.InvThroughput, wantA[idx], wantB[idx])
					return
				}
			}
		}(g)
	}

	// 20 mid-traffic reloads alternating generations.
	for i := 0; i < 20; i++ {
		next := mapA
		if i%2 == 0 {
			next = mapB
		}
		if _, err := s.Reload("zen", next); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if gen := s.state().mappings["zen"].generation; gen != 21 {
		t.Fatalf("generation = %d, want 21 after 20 reloads", gen)
	}
}
