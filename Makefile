GO ?= go

.PHONY: build test vet race perfbench-check soak solver-soak serve-smoke serve-chaos-soak verify bench bench-smoke fuzz-smoke clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector: the batch
# engine (worker pool, cache, persist hook, in-flight dedup), the chaos
# wrapper, the pipeline on top of them (kill-and-resume golden tests),
# the on-disk store (journal writes from the engine's workers), the
# serving layer (evaluator pool, prediction LRU, HTTP hammer), and
# the SMT layer, whose cancellable, budgeted queries run inside those
# pipelines. The SMT layer starts no goroutines of its own; racing it
# is a cheap guard against shared state creeping in unnoticed.
race:
	$(GO) test -race -timeout 20m ./internal/engine/... ./internal/chaos/... ./internal/core/... ./internal/persist/... ./internal/serve/... ./internal/smt/...

# serve-smoke boots the zenportd HTTP stack in-process under the race
# detector and replays a mixed 64-client query stream against it,
# verifying every served prediction bit-identical to the batch
# evaluator (the same compiled-mapping path zeneval uses) and printing
# p50/p90/p99 latency. A non-zero exit means a mismatch, a failed
# request, or a data race.
serve-smoke:
	$(GO) run -race ./cmd/zenload -self -mapping zen=mapping.json -clients 64 -requests 3000 -verify

# serve-chaos-soak is the serving-robustness soak under the race
# detector: a deliberately tiny admission gate (-overload) so the
# stream genuinely sheds, a 250ms X-Zenport-Deadline budget on every
# request, slow clients trickling request bodies, and one SIGHUP hot
# reload mid-traffic. The daemon must never crash or deadlock, every
# 200 prediction must verify bit-identical to the batch evaluator,
# every shed response must carry Retry-After, and the reload must land
# at generation 2.
serve-chaos-soak:
	$(GO) run -race ./cmd/zenload -self -mapping zen=mapping.json -clients 64 -requests 4000 -verify \
		-overload -deadline 250ms -slow-clients 4 -reload-at 800

# soak runs the chaos-hardened inference end to end under the race
# detector: full pipeline under ≈2% transients, hangs, 10× outlier
# spikes and stuck counters, demanding byte-identity with the
# fault-free golden run plus kill-and-resume and cancellation legs.
soak:
	$(GO) test -race -timeout 20m -run 'TestChaosSoak' -v ./internal/chaos/

# solver-soak runs inference under solver-level adversity: the
# consistent-lie fault class (a statically shifted kernel the outlier
# filter cannot see, recoverable only via UNSAT-core relaxation),
# budget-starved solver queries, and the retry-on-resume path —
# asserting the pipeline degrades to a partial mapping instead of
# dying, and that recovery keeps the untouched schemes byte-identical
# to the fault-free golden run.
solver-soak:
	$(GO) test -race -timeout 20m -run 'TestChaosConsistentLie|TestPipelineBudget|TestPipelineRetryUnresolvedOnResume|TestSupervised|TestUnsatCore' -v ./internal/chaos/ ./internal/core/ ./internal/smt/

# perfbench-check vets and short-tests the benchmark harness.
# perfbench is a nested module, so ./... above never compiles it; a
# break in the zenport API it imports would otherwise surface only
# when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# verify is the tier-1 gate: everything must build, vet clean, pass
# the full test suite, pass the race detector on the concurrent
# packages, and keep the benchmark harness compiling and passing.
verify: vet build test race perfbench-check

bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke compiles and runs every benchmark exactly once — a fast
# CI guard that the experiment harness and the compiled-evaluator
# benchmarks keep working, without measuring anything.
bench-smoke:
	$(GO) test -run 'TestNothing' -bench=. -benchmem -benchtime=1x .

# fuzz-smoke runs every fuzz target for 20 s each: the compiled
# throughput evaluator against the reference (tp⁻¹, witness, bounded
# tp⁻¹ and IPC at a fuzzed rmax, the count range error), the mapping
# JSON decoder (no panic; accepted mappings validate, round-trip and
# compile to the reference), the simplex LP oracle
# against the bottleneck-set evaluator,
# the CDCL solver against brute-force enumeration, the serving
# request decoder (no panic, no 5xx, every 200 equal to the compiled
# evaluator), the persist journal decoder (no panic, keyed records,
# valid prefix plus torn tail equal the file) and sealed-document
# reader (no panic, an accepted payload re-seals unchanged), the
# canonical experiment key (order-independent, parses back to the
# experiment), and the simulator's on-demand noise source against
# math/rand (the same NormFloat64, Intn(2) and raw Int63 draws for a
# fuzzed seed, past the on-demand horizon). Go fuzzes one target of one
# package per run. A failing input is written under the package's
# testdata/fuzz directory.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledMatchesReference$$' -fuzztime 20s ./internal/portmodel/
	$(GO) test -run '^$$' -fuzz '^FuzzMappingUnmarshalJSON$$' -fuzztime 20s ./internal/portmodel/
	$(GO) test -run '^$$' -fuzz '^FuzzLPMatchesReference$$' -fuzztime 20s ./internal/lp/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveAgainstBruteForce$$' -fuzztime 20s ./internal/sat/
	$(GO) test -run '^$$' -fuzz '^FuzzPredictRequest$$' -fuzztime 20s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime 20s ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDocument$$' -fuzztime 20s ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalKey$$' -fuzztime 20s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzSimSourceMatchesStdlib$$' -fuzztime 20s ./internal/zensim/

clean:
	$(GO) clean ./...
