package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"sort"

	"zenport/internal/portmodel"
)

// Hot mapping reload: a long-running daemon must pick up a rewritten
// mapping file (a fresh zeninfer run) without a restart and without
// ever serving from a half-swapped state. The protocol is
// validate-then-atomic-swap:
//
//  1. the new handle — mapping, evaluator pool, LRU — is built
//     completely off to the side; the serving state is untouched;
//  2. the new handle is smoke-checked: a pinned probe experiment is
//     evaluated on a pooled evaluator and compared bit-identical to
//     the reference evaluator, under panic isolation, so a mapping
//     that compiles but cannot answer is rejected before the swap;
//  3. the server's immutable state pointer is swapped atomically:
//     every request resolves its handle exactly once, so it runs
//     entirely on the old or entirely on the new generation — never
//     a mix — and in-flight requests on the old handle drain safely
//     (handles are immutable and the old pool stays alive until its
//     borrowers return);
//  4. the prediction LRU is retained across fingerprint-identical
//     reloads (same mapping bits → same predictions, so the hot set
//     stays warm) and dropped otherwise (a changed mapping makes
//     every cached prediction stale).
//
// Reload is exposed two ways: Server.Reload for embedders, and the
// loopback-only POST /admin/reload endpoint + SIGHUP in cmd/zenportd.

// ReloadResult reports a completed reload.
type ReloadResult struct {
	// Mapping is the reloaded mapping's name.
	Mapping string `json:"mapping"`
	// Generation counts loads of this name, starting at 1; every
	// successful reload bumps it.
	Generation uint64 `json:"generation"`
	// Fingerprint identifies the mapping content (FNV-64a over the
	// normalized usage table).
	Fingerprint string `json:"fingerprint"`
	// CacheRetained reports that the previous generation's prediction
	// LRU was kept (fingerprint-identical reload).
	CacheRetained bool `json:"cache_retained"`
	// Schemes is the number of schemes in the new mapping.
	Schemes int `json:"schemes"`
}

// Reload validates a new mapping for name, smoke-checks it, and
// atomically swaps it into serving. On error the previous generation
// keeps serving untouched. A name not yet loaded is loaded fresh at
// generation 1. Reload is safe to call concurrently with serving and
// with other Load/Reload calls.
func (s *Server) Reload(name string, m *portmodel.Mapping) (*ReloadResult, error) {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	old := s.state().mappings[name]
	gen := uint64(1)
	if old != nil {
		gen = old.generation + 1
	}
	h, err := s.buildHandle(name, m, gen, old)
	if err != nil {
		return nil, err
	}
	s.install(h)
	s.reloads.Add(1)
	return &ReloadResult{
		Mapping:       name,
		Generation:    h.generation,
		Fingerprint:   h.fingerprint,
		CacheRetained: old != nil && old.cache == h.cache,
		Schemes:       len(h.keys),
	}, nil
}

// buildHandle constructs and smoke-checks a handle without touching
// the serving state. Callers hold loadMu.
func (s *Server) buildHandle(name string, m *portmodel.Mapping, gen uint64, old *handle) (*handle, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty mapping name")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("serve: mapping %q: %w", name, err)
	}
	pool, err := newEvalPool(m, s.cfg.MaxConcurrent)
	if err != nil {
		return nil, fmt.Errorf("serve: mapping %q: %w", name, err)
	}
	h := &handle{
		s:           s,
		name:        name,
		m:           m,
		fingerprint: mappingFingerprint(m),
		generation:  gen,
		keys:        m.Keys(),
		pool:        pool,
		cache:       newLRU[portmodel.Evaluation](s.cfg.CacheSize),
	}
	if old != nil && old.fingerprint == h.fingerprint {
		// Identical bits: the previous generation's predictions are
		// still exact, so the hot set stays warm across the reload.
		h.cache = old.cache
	}
	if err := h.smokeCheck(s.cfg.Rmax); err != nil {
		return nil, fmt.Errorf("serve: mapping %q failed smoke check: %w", name, err)
	}
	return h, nil
}

// install publishes a handle into a fresh immutable state. Callers
// hold loadMu; readers observe the old or the new state atomically.
func (s *Server) install(h *handle) {
	cur := s.state()
	next := &svcState{mappings: make(map[string]*handle, len(cur.mappings)+1)}
	for name, old := range cur.mappings {
		next.mappings[name] = old
	}
	next.mappings[h.name] = h
	next.names = make([]string, 0, len(next.mappings))
	for name := range next.mappings {
		next.names = append(next.names, name)
	}
	sort.Strings(next.names)
	s.st.Store(next)
}

// smokeCheck evaluates the pinned probe experiment — one instance of
// the mapping's first scheme key — on a pooled evaluator under panic
// isolation and demands the result bit-identical to the reference
// evaluator and finite. It is the gate between "compiles" and
// "serves": a handle that cannot answer the probe never reaches the
// state swap.
func (h *handle) smokeCheck(rmax float64) (err error) {
	if len(h.keys) == 0 {
		return nil
	}
	probe := portmodel.Experiment{h.keys[0]: 1}
	ev, err := h.pool.get()
	if err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe %q panicked: %v", h.keys[0], r)
			return // the evaluator is suspect; drop it instead of pooling
		}
		h.pool.put(ev)
	}()
	got, err := ev.InverseThroughputBounded(probe, rmax)
	if err != nil {
		return fmt.Errorf("probe %q: %w", h.keys[0], err)
	}
	want, err := h.m.InverseThroughputBounded(probe, rmax)
	if err != nil {
		return fmt.Errorf("probe %q (reference): %w", h.keys[0], err)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
		return fmt.Errorf("probe %q: non-finite prediction %v", h.keys[0], got)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("probe %q: compiled %v != reference %v", h.keys[0], got, want)
	}
	return nil
}

// mappingFingerprint hashes the mapping content — port count and the
// normalized usage table in sorted key order — so two mappings with
// identical serving behavior share a fingerprint regardless of µop
// declaration order.
func mappingFingerprint(m *portmodel.Mapping) string {
	fh := fnv.New64a()
	fmt.Fprintf(fh, "ports=%d", m.NumPorts)
	for _, key := range m.Keys() {
		u, _ := m.Get(key)
		fmt.Fprintf(fh, "|%s:", key)
		for _, x := range u.Clone().Normalize() {
			fmt.Fprintf(fh, "%x*%d,", uint16(x.Ports), x.Count)
		}
	}
	return fmt.Sprintf("%016x", fh.Sum64())
}

// ReloadRequest is the body of POST /admin/reload.
type ReloadRequest struct {
	// Mapping is the name to (re)load.
	Mapping string `json:"mapping"`
	// Path is the mapping JSON file to load it from.
	Path string `json:"path"`
}

// handleAdminReload is the loopback-only reload endpoint. It exists
// for operators without signal access to the daemon (containers,
// supervisors); network clients get 403 regardless of body.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if err := requireMethod(r, http.MethodPost); err != nil {
		s.writeError(w, err)
		return
	}
	if !isLoopback(r.RemoteAddr) {
		s.writeError(w, errf(http.StatusForbidden, "serve: admin endpoint is loopback-only"))
		return
	}
	var req ReloadRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Mapping == "" || req.Path == "" {
		s.writeError(w, errf(http.StatusBadRequest, "serve: reload needs mapping and path"))
		return
	}
	data, err := os.ReadFile(req.Path)
	if err != nil {
		s.writeError(w, errf(http.StatusBadRequest, "serve: reload: %v", err))
		return
	}
	var m portmodel.Mapping
	if err := json.Unmarshal(data, &m); err != nil {
		s.writeError(w, errf(http.StatusBadRequest, "serve: reload: %s: %v", req.Path, err))
		return
	}
	res, err := s.Reload(req.Mapping, &m)
	if err != nil {
		s.writeError(w, errf(http.StatusBadRequest, "serve: reload rejected: %v", err))
		return
	}
	if s.cfg.Log != nil {
		s.cfg.Log("serve: reloaded mapping %q: generation %d, fingerprint %s, cache retained %v",
			res.Mapping, res.Generation, res.Fingerprint, res.CacheRetained)
	}
	s.writeJSON(w, res)
}

// isLoopback reports whether the remote address is a loopback IP.
func isLoopback(remoteAddr string) bool {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}
