// Command zenportd serves inferred port mappings over HTTP/JSON:
// basic-block throughput predictions, per-scheme port-usage
// explanations with bottleneck-set witnesses, and diffs between
// mappings — the batch pipeline's output turned into an analysis
// service.
//
// Usage:
//
//	zenportd -mapping zen=mapping.json [-mapping zen2=other.json] [-addr :8080]
//
// Endpoints (see internal/serve):
//
//	GET  /healthz       liveness + loaded mapping names
//	GET  /v1/mappings   loaded mappings
//	POST /v1/predict    {"mapping":"zen","kernel":"2*add GPR[32], GPR[32]; mul GPR[64]"}
//	POST /v1/explain    same body; adds per-scheme usage + witness
//	GET  /v1/diff?a=zen&b=zen2
//	GET  /v1/stats      cache/pool/dedup counters
//
// Predictions are bit-identical to batch zeneval over the same
// mapping and rmax: the daemon runs the same compiled evaluator, and
// cmd/zenload -verify asserts it under load. -addr :0 binds a random
// port; the bound address is printed as "zenportd: listening on ...".
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// The daemon is overload-safe (see internal/serve): evaluator work
// runs behind a bounded-concurrency, bounded-queue admission gate
// (-max-concurrent, -max-queue, -queue-timeout; excess load is shed
// with 429 + Retry-After, and -queue-timeout is the one bound on how
// long a request waits), a client may shorten its own wait with the
// X-Zenport-Deadline header, and handler and evaluator panics are
// recovered and counted instead of killing the process.
//
// SIGHUP re-reads every -mapping file and hot-reloads it with
// validate-then-atomic-swap semantics: a mapping that fails
// validation or the smoke probe is rejected and the previous
// generation keeps serving; in-flight requests drain on the old
// generation. POST /admin/reload (loopback-only) reloads a single
// mapping from a path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
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

// main delegates to run so deferred cleanup runs on every exit path
// — log.Fatalf or os.Exit inside the work (the old shape) skipped the
// defers, so an error during a drain left resources behind and made it
// impossible to ever attach cleanup that must run (a persist store's
// Close, a cache-directory unlock).
func main() {
	if err := run(); err != nil {
		log.Fatalf("zenportd: %v", err)
	}
}

func run() error {
	var mappings mappingFlags
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	rmax := flag.Float64("rmax", 5, "frontend/retire bound in instructions per cycle (0 = none)")
	cacheSize := flag.Int("cache", serve.DefaultCacheSize, "per-mapping prediction LRU capacity")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size cap in bytes")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	quiet := flag.Bool("quiet", false, "suppress per-error log lines")
	maxConcurrent := flag.Int("max-concurrent", serve.DefaultMaxConcurrent, "concurrent evaluator work bound")
	maxQueue := flag.Int("max-queue", serve.DefaultMaxQueue, "admission queue depth (<0 = no queue, shed immediately)")
	queueTimeout := flag.Duration("queue-timeout", serve.DefaultQueueTimeout, "shed requests queued longer than this")
	retryAfter := flag.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint on shed responses")
	flag.Var(&mappings, "mapping", "name=path of a mapping JSON to load (repeatable)")
	flag.Parse()

	if len(mappings) == 0 {
		return errors.New("specify at least one -mapping name=path")
	}

	cfg := serve.Config{
		Rmax: *rmax, CacheSize: *cacheSize, MaxBodyBytes: *maxBody,
		MaxConcurrent: *maxConcurrent, MaxQueue: *maxQueue, QueueTimeout: *queueTimeout,
		RetryAfter: *retryAfter,
	}
	if !*quiet {
		cfg.Log = log.Printf
	}
	srv := serve.New(cfg)
	for _, spec := range mappings {
		data, err := os.ReadFile(spec.path)
		if err != nil {
			return err
		}
		var m portmodel.Mapping
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("%s: %w", spec.path, err)
		}
		if err := srv.Load(spec.name, &m); err != nil {
			return err
		}
		log.Printf("zenportd: loaded mapping %q from %s (%d ports, %d schemes)",
			spec.name, spec.path, m.NumPorts, len(m.Usage))
	}

	// The listener is opened before serving so -addr :0 callers
	// (serve-smoke, load tests) can scrape the bound address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("zenportd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads every -mapping file; it must not share the
	// NotifyContext above or the first reload would start a drain.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	for {
		select {
		case err := <-done:
			if !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		case <-hup:
			reloadAll(srv, mappings)
		case <-ctx.Done():
			// First signal: stop accepting, drain in-flight requests.
			// http.Server.Shutdown returns once every connection is idle or
			// the drain timeout forces the remainder closed.
			stop() // a second signal kills immediately via default handling
			log.Printf("zenportd: signal received, draining (up to %s)", *drain)
			sctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := hs.Shutdown(sctx); err != nil {
				return fmt.Errorf("drain incomplete: %w", err)
			}
			log.Printf("zenportd: drained cleanly")
			return nil
		}
	}
}

// reloadAll re-reads every -mapping file and hot-reloads it. A
// rejected reload — unreadable file, invalid mapping, failed smoke
// check — is logged and skipped: the previous generation keeps
// serving, which is the whole point of validate-then-swap.
func reloadAll(srv *serve.Server, mappings mappingFlags) {
	for _, spec := range mappings {
		data, err := os.ReadFile(spec.path)
		if err != nil {
			log.Printf("zenportd: reload %q rejected, still serving previous generation: %v", spec.name, err)
			continue
		}
		var m portmodel.Mapping
		if err := json.Unmarshal(data, &m); err != nil {
			log.Printf("zenportd: reload %q rejected, still serving previous generation: %s: %v", spec.name, spec.path, err)
			continue
		}
		res, err := srv.Reload(spec.name, &m)
		if err != nil {
			log.Printf("zenportd: reload %q rejected, still serving previous generation: %v", spec.name, err)
			continue
		}
		log.Printf("zenportd: reloaded mapping %q from %s: generation %d, fingerprint %s, cache retained %v",
			spec.name, spec.path, res.Generation, res.Fingerprint, res.CacheRetained)
	}
}
