// Command zenload replays a mixed query stream against a zenportd
// daemon at configurable concurrency and reports latency quantiles
// (p50/p90/p99) and sustained throughput. With -verify, every
// prediction the daemon serves is checked bit-identical to the batch
// evaluator (the same compiled-mapping path cmd/zeneval uses), so a
// load run doubles as a correctness proof: caching and evaluator
// pooling must not change a single bit.
//
// Usage:
//
//	zenload -url http://127.0.0.1:8080 -mapping zen=mapping.json -clients 64 -requests 5000 -verify
//	zenload -self -mapping zen=mapping.json -clients 64 -requests 2000 -verify
//
// -self boots the zenportd HTTP stack in-process on a random port and
// aims the load at it — the mode `make serve-smoke` runs under the
// race detector.
//
// zenload is also the serving-robustness soak (`make
// serve-chaos-soak`): -overload shrinks the admission gate and the LRU
// so the stream genuinely sheds, -deadline stamps every request with
// an X-Zenport-Deadline budget, -slow-clients trickles request bodies,
// and -reload-at fires a SIGHUP hot reload mid-traffic. Responses are
// classified by status — shed (429), timeout (504), canceled (499) —
// shed responses must carry Retry-After, non-200s are excluded from
// the latency quantiles, and every 200 prediction must still verify
// bit-identical.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zenport/internal/portmodel"
	"zenport/internal/serve"
)

// mappingFlags collects repeated -mapping name=path pairs.
type mappingFlags []struct{ name, path string }

// String implements flag.Value.
func (m *mappingFlags) String() string {
	parts := make([]string, len(*m))
	for i, p := range *m {
		parts[i] = p.name + "=" + p.path
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (m *mappingFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

// query is one request of the replayed stream with its precomputed
// reference answer (when -verify is on).
type query struct {
	kind    string // "predict" or "explain"
	body    []byte
	wantInv uint64 // math.Float64bits of the reference bounded tp^-1
	wantIPC uint64
	verify  bool
}

// slowReader trickles a request body a few bytes at a time — the
// classic slow client. The daemon must absorb it without an evaluator
// slot being held hostage (decode happens before admission).
type slowReader struct {
	data  []byte
	chunk int
	delay time.Duration
}

// Read implements io.Reader.
func (r *slowReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(r.delay)
	n := r.chunk
	if n > len(r.data) || n > len(p) {
		n = min(len(r.data), len(p))
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// tally is the per-status classification of the replayed stream.
type tally struct {
	ok       atomic.Uint64
	shed     atomic.Uint64 // 429
	timeout  atomic.Uint64 // 504
	canceled atomic.Uint64 // 499
	failures atomic.Uint64
	verified atomic.Uint64
}

func main() {
	var mappings mappingFlags
	url := flag.String("url", "", "target daemon base URL (empty with -self)")
	self := flag.Bool("self", false, "boot the serving stack in-process on a random port")
	clients := flag.Int("clients", 64, "concurrent client goroutines")
	requests := flag.Int("requests", 2000, "total requests to issue")
	distinct := flag.Int("distinct", 200, "distinct experiments in the stream")
	hot := flag.Float64("hot", 0.8, "fraction of requests drawn from the hottest 10% of experiments")
	seed := flag.Int64("seed", 1, "stream RNG seed")
	rmax := flag.Float64("rmax", 5, "rmax the daemon serves with (for -verify references)")
	verify := flag.Bool("verify", false, "check every prediction bit-identical to the batch evaluator")
	deadline := flag.Duration("deadline", 0, "X-Zenport-Deadline header stamped on every request (0 = none)")
	slowClients := flag.Int("slow-clients", 0, "clients that trickle their request bodies byte-chunks at a time")
	overload := flag.Bool("overload", false, "with -self, shrink the admission gate and the LRU so the stream genuinely sheds")
	reloadAt := flag.Int64("reload-at", 0, "with -self, fire a SIGHUP hot reload after this many completed responses (0 = never)")
	flag.Var(&mappings, "mapping", "name=path of a mapping JSON (repeatable; first is the query target)")
	flag.Parse()

	if len(mappings) == 0 {
		log.Fatal("zenload: specify -mapping name=path (the stream is built from its schemes)")
	}
	if (*url == "") == !*self {
		log.Fatal("zenload: specify exactly one of -url and -self")
	}
	if (*overload || *reloadAt > 0) && !*self {
		log.Fatal("zenload: -overload and -reload-at require -self (they configure the in-process daemon)")
	}

	loaded := make(map[string]*portmodel.Mapping, len(mappings))
	for _, spec := range mappings {
		data, err := os.ReadFile(spec.path)
		if err != nil {
			log.Fatalf("zenload: %v", err)
		}
		m := new(portmodel.Mapping)
		if err := json.Unmarshal(data, m); err != nil {
			log.Fatalf("zenload: %s: %v", spec.path, err)
		}
		loaded[spec.name] = m
	}
	target := mappings[0].name
	tm := loaded[target]

	base := *url
	if *self {
		cfg := serve.Config{Rmax: *rmax}
		if *overload {
			// A gate small enough that this stream genuinely saturates
			// it: the soak asserts shedding actually happened. One
			// evaluator slot plus a one-deep queue means any three
			// overlapping cache misses shed the third. An evaluation
			// takes microseconds, so the LRU is shrunk too: a 16-entry
			// cache over the 200-experiment stream sends about 40 % of
			// the requests to the gate, which then sheds hundreds.
			cfg.MaxConcurrent = 1
			cfg.MaxQueue = 1
			cfg.CacheSize = 16
			cfg.QueueTimeout = 2 * time.Millisecond
		}
		srv := serve.New(cfg)
		for name, m := range loaded {
			if err := srv.Load(name, m); err != nil {
				log.Fatalf("zenload: %v", err)
			}
		}
		if *reloadAt > 0 {
			// The zenportd SIGHUP contract, in-process: a HUP re-reads
			// the -mapping files and hot-reloads them mid-traffic.
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				for range hup {
					for _, spec := range mappings {
						res, err := srv.Reload(spec.name, loaded[spec.name])
						if err != nil {
							log.Fatalf("zenload: reload %q rejected: %v", spec.name, err)
						}
						fmt.Printf("zenload: reloaded %q: generation %d, cache retained %v\n",
							spec.name, res.Generation, res.CacheRetained)
					}
				}
			}()
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("zenload: %v", err)
		}
		go func() { _ = (&http.Server{Handler: srv}).Serve(ln) }()
		base = "http://" + ln.Addr().String()
		fmt.Printf("zenload: in-process daemon on %s\n", base)
	}
	base = strings.TrimRight(base, "/")

	// Build the experiment pool and, with -verify, the reference
	// answers through the exact batch path zeneval uses: one compiled
	// evaluator, single-threaded.
	rng := rand.New(rand.NewSource(*seed))
	keys := tm.Keys()
	exps := make([]portmodel.Experiment, *distinct)
	for i := range exps {
		e := portmodel.Experiment{}
		for j := 0; j <= rng.Intn(4); j++ {
			e[keys[rng.Intn(len(keys))]] += 1 + rng.Intn(4)
		}
		e[keys[i%len(keys)]] += 1 + i%7
		exps[i] = e
	}
	var refInv, refIPC []uint64
	if *verify {
		c, err := portmodel.CompileMapping(tm, nil)
		if err != nil {
			log.Fatalf("zenload: %v", err)
		}
		refInv = make([]uint64, len(exps))
		refIPC = make([]uint64, len(exps))
		for i, e := range exps {
			inv, err := c.InverseThroughputBounded(e, *rmax)
			if err != nil {
				log.Fatalf("zenload: %v", err)
			}
			ipc, err := c.IPC(e, *rmax)
			if err != nil {
				log.Fatalf("zenload: %v", err)
			}
			refInv[i] = math.Float64bits(inv)
			refIPC[i] = math.Float64bits(ipc)
		}
	}

	// The stream: hot-set skew (most load on few blocks, like a real
	// analysis session), ~10% explains mixed into the predicts.
	hotN := len(exps) / 10
	if hotN < 1 {
		hotN = 1
	}
	stream := make([]query, *requests)
	for i := range stream {
		idx := rng.Intn(len(exps))
		if rng.Float64() < *hot {
			idx = rng.Intn(hotN)
		}
		kind := "predict"
		if rng.Float64() < 0.1 {
			kind = "explain"
		}
		body, err := json.Marshal(map[string]any{"mapping": target, "experiment": exps[idx]})
		if err != nil {
			log.Fatalf("zenload: %v", err)
		}
		q := query{kind: kind, body: body}
		if *verify && kind == "predict" {
			q.verify, q.wantInv, q.wantIPC = true, refInv[idx], refIPC[idx]
		}
		stream[i] = q
	}

	// Replay at fixed concurrency: one shared index, per-client
	// latency logs, merged afterwards. Latencies cover 200s only —
	// shed responses return in microseconds and would fraudulently
	// flatter the quantiles.
	var next atomic.Int64
	var completed atomic.Int64
	var reloadOnce sync.Once
	var t tally
	lats := make([][]time.Duration, *clients)
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			slow := c < *slowClients
			mine := make([]time.Duration, 0, *requests / *clients + 1)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					break
				}
				q := stream[i]
				var body io.Reader = bytes.NewReader(q.body)
				if slow {
					body = &slowReader{data: q.body, chunk: 32, delay: 200 * time.Microsecond}
				}
				req, err := http.NewRequest(http.MethodPost, base+"/v1/"+q.kind, body)
				if err != nil {
					log.Fatalf("zenload: %v", err)
				}
				req.Header.Set("Content-Type", "application/json")
				if *deadline > 0 {
					req.Header.Set(serve.DeadlineHeader, deadline.String())
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					t.failures.Add(1)
					log.Printf("zenload: %v", err)
					continue
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.failures.Add(1)
					log.Printf("zenload: %s: read: %v", q.kind, err)
					continue
				}
				classify(&t, q, resp, data, time.Since(t0), &mine)
				if n := completed.Add(1); *reloadAt > 0 && n >= *reloadAt {
					reloadOnce.Do(func() {
						if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
							log.Fatalf("zenload: SIGHUP: %v", err)
						}
					})
				}
			}
			lats[c] = mine
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	fmt.Printf("zenload: %d requests, %d clients (%d slow), %d distinct experiments over mapping %q\n",
		len(stream), *clients, *slowClients, len(exps), target)
	fmt.Printf("zenload: wall %.2fs, %.0f req/s\n", wall.Seconds(), float64(len(stream))/wall.Seconds())
	fmt.Printf("zenload: %d ok, %d shed, %d timeout, %d canceled, %d failures\n",
		t.ok.Load(), t.shed.Load(), t.timeout.Load(), t.canceled.Load(), t.failures.Load())
	fmt.Printf("zenload: latency (200s only) p50 %s  p90 %s  p99 %s  max %s\n", q(0.50), q(0.90), q(0.99), q(1.0))
	if *verify {
		fmt.Printf("zenload: %d predictions verified bit-identical to the batch evaluator\n", t.verified.Load())
	}

	// Pull the daemon's own counters for the report.
	if resp, err := client.Get(base + "/v1/stats"); err == nil {
		var st serve.StatsResponse
		if json.NewDecoder(resp.Body).Decode(&st) == nil {
			for _, ms := range st.Mappings {
				if ms.Name == target {
					fmt.Printf("zenload: server: %d evaluations, %d cache hits, %d pool compiles, generation %d\n",
						ms.Evaluations, ms.Cache.Hits, ms.PoolCompiles, ms.Generation)
				}
			}
			fmt.Printf("zenload: server: %d shed (gate hw %d), %d panics recovered, %d deadline expiries, %d reloads\n",
				st.Gate.Shed, st.Gate.QueueDepthHighWater, st.PanicsRecovered, st.DeadlineExpiries, st.Reloads)
		}
		resp.Body.Close()
	}

	// Soak assertions: the exit code is the contract CI leans on.
	if n := t.failures.Load(); n > 0 {
		log.Fatalf("zenload: %d failed or mismatched requests", n)
	}
	if *verify && t.verified.Load() == 0 {
		log.Fatal("zenload: -verify set but no predictions were verified")
	}
	if *overload && t.shed.Load() == 0 {
		log.Fatal("zenload: -overload set but nothing was shed (gate never saturated)")
	}
	if *reloadAt > 0 {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if g := reloadGeneration(client, base, target); g >= 2 {
				fmt.Printf("zenload: reload landed: mapping %q at generation %d\n", target, g)
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("zenload: -reload-at %d fired but mapping %q never reached generation 2", *reloadAt, target)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// classify buckets one response by status, recording latency and
// verifying bit-identity for 200s and demanding Retry-After on shed
// responses.
func classify(t *tally, q query, resp *http.Response, data []byte, lat time.Duration, mine *[]time.Duration) {
	switch resp.StatusCode {
	case http.StatusOK:
		t.ok.Add(1)
		*mine = append(*mine, lat)
		if q.verify {
			var pr serve.PredictResponse
			if err := json.Unmarshal(data, &pr); err != nil {
				t.failures.Add(1)
				log.Printf("zenload: bad predict response: %v", err)
				return
			}
			if math.Float64bits(pr.InvThroughput) != q.wantInv || math.Float64bits(pr.IPC) != q.wantIPC {
				t.failures.Add(1)
				log.Printf("zenload: MISMATCH: served (inv %v, ipc %v) != batch reference (inv %v, ipc %v)",
					pr.InvThroughput, pr.IPC,
					math.Float64frombits(q.wantInv), math.Float64frombits(q.wantIPC))
				return
			}
			t.verified.Add(1)
		}
	case http.StatusTooManyRequests:
		t.shed.Add(1)
		if resp.Header.Get("Retry-After") == "" {
			t.failures.Add(1)
			log.Printf("zenload: shed response missing Retry-After")
		}
	case http.StatusGatewayTimeout:
		t.timeout.Add(1)
	case serve.StatusClientClosedRequest:
		t.canceled.Add(1)
	default:
		t.failures.Add(1)
		log.Printf("zenload: %s: status %d: %s", q.kind, resp.StatusCode, data)
	}
}

// reloadGeneration polls /v1/stats for the mapping's generation.
func reloadGeneration(client *http.Client, base, name string) uint64 {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0
	}
	for _, ms := range st.Mappings {
		if ms.Name == name {
			return ms.Generation
		}
	}
	return 0
}
