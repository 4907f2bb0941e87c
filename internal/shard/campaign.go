package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"zenport/internal/persist"
	"zenport/internal/portmodel"
)

// Campaign directory layout:
//
//	campaign.json   — manifest: fingerprint, shard count, slices
//	campaign.lock   — short-lived flock serializing manifest creation
//	slice-NN/       — per-slice directory: lease files, persist
//	                  journals/snapshots, pipeline checkpoint, result.json
//
// After a merge, the campaign root additionally holds the compacted
// snapshot absorbing every slice's measurements (the regular persist
// epoch-0 files).
const (
	manifestFile = "campaign.json"
	campaignLock = "campaign.lock"
)

// Manifest pins a campaign's configuration: it is a sealed document
// under the campaign fingerprint, which every shard process (and the
// merge) validates against, so shards of different configurations
// cannot silently share a directory.
type Manifest struct {
	Shards int `json:"shards"`
	// Slices is the deterministic partition of the scheme universe;
	// slice i is owned by whoever holds slice-i's lease.
	Slices [][]string `json:"slices"`
	// fingerprint is the campaign fingerprint the manifest is sealed
	// under; slice results are sealed under it too.
	fingerprint string
}

// SliceDir returns the directory of slice i under the campaign root.
func SliceDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("slice-%02d", i))
}

// EnsureManifest creates the campaign manifest — or validates the
// existing one — under the campaign lock, so concurrent shard
// processes starting at once agree on exactly one partition. The
// manifest is immutable once written: a shard arriving with a
// different fingerprint, shard count, or universe fails loudly instead
// of corrupting the campaign.
func EnsureManifest(dir, fingerprint string, shards int, universe []string) (*Manifest, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", shards)
	}
	if fingerprint == "" {
		return nil, fmt.Errorf("shard: empty fingerprint")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lk, err := persist.LockFile(filepath.Join(dir, campaignLock))
	if err != nil {
		return nil, err
	}
	defer lk.Unlock()

	want := &Manifest{Shards: shards, Slices: Partition(universe, shards), fingerprint: fingerprint}
	have, err := readManifest(dir, fingerprint)
	switch {
	case err != nil:
		return nil, err
	case have == nil:
		if err := persist.WriteDocument(filepath.Join(dir, manifestFile), fingerprint, want); err != nil {
			return nil, err
		}
		return want, nil
	case have.Shards != want.Shards:
		return nil, fmt.Errorf("shard: campaign %s was created with %d shard(s), this run wants %d",
			dir, have.Shards, want.Shards)
	case !reflect.DeepEqual(have.Slices, want.Slices):
		return nil, fmt.Errorf("shard: campaign %s partitions a different scheme universe", dir)
	}
	return have, nil
}

// readManifest reads and validates the campaign manifest under
// fingerprint; (nil, nil) when the campaign has none yet.
func readManifest(dir, fingerprint string) (*Manifest, error) {
	path := filepath.Join(dir, manifestFile)
	m := &Manifest{fingerprint: fingerprint}
	ok, err := persist.ReadDocument(path, fingerprint, m)
	switch {
	case err != nil:
		return nil, fmt.Errorf("shard: manifest %s: %w", path, err)
	case !ok:
		return nil, nil
	case m.Shards != len(m.Slices):
		return nil, fmt.Errorf("shard: manifest %s declares %d shard(s) but %d slice(s)", path, m.Shards, len(m.Slices))
	}
	return m, nil
}

// SliceRun is the work order the runner hands the pipeline callback:
// one owned slice, the epoch to persist under, and the stage-4 filter.
type SliceRun struct {
	// Index is the slice number.
	Index int
	// Dir is the slice directory: open the persist store
	// (persist.OpenEpoch with Epoch) and the stage checkpointer here.
	Dir string
	// Epoch is the lease's writer epoch.
	Epoch uint64
	// Keys are the slice's scheme keys.
	Keys []string
	// Filter is the slice-membership filter for
	// core.Options.CharacterizeFilter.
	Filter func(key string) bool
	// SetProgress publishes the callback's monotonic activity counter
	// (engine.Progress) to the lease heartbeat. Until it is called the
	// heartbeat publishes no progress, so call it as soon as the
	// engine exists — a beat that never advances looks hung.
	SetProgress func(fn func() uint64)
}

// Outcome is what the pipeline callback returns for a completed slice.
type Outcome struct {
	// Mapping is the slice's full inferred mapping (rep.Final).
	Mapping *portmodel.Mapping
	// Unresolved lists the slice schemes left unresolved
	// (rep.Unresolved).
	Unresolved []string
	// Excluded maps scheme keys to exclusion reasons (rep.Excluded,
	// stringified).
	Excluded map[string]string
}

// Config configures one shard process's participation in a campaign.
type Config struct {
	// Dir is the campaign root.
	Dir string
	// Owner identifies this process in lease and result files.
	Owner string
	// ShardID is this process's home slice: it is attempted first, so
	// N healthy shards each start on their own slice before any
	// stealing happens.
	ShardID int
	// Manifest is the campaign manifest (EnsureManifest).
	Manifest *Manifest
	// Run executes the inference pipeline for one owned slice. It must
	// honor ctx cancellation: the runner cancels it when the slice's
	// lease is lost.
	Run func(ctx context.Context, sr *SliceRun) (*Outcome, error)
	// Steal enables work stealing: after its own slice, the shard
	// takes over dead or stale slices and waits for the campaign to
	// complete. Without it the shard runs only its own slice and
	// returns.
	Steal bool
	// HeartbeatInterval is the lease beat period (0 means 250ms).
	HeartbeatInterval time.Duration
	// PollInterval is the sweep period over incomplete slices
	// (0 means 500ms).
	PollInterval time.Duration
	// StaleAfter is the number of consecutive unchanged (epoch, beat)
	// observations after which a live owner is presumed hung and its
	// slice stolen (0 means 20). Dead owners are detected immediately
	// via their released flocks; StaleAfter only gates the hung case,
	// so an overly patient value delays hung-recovery but never
	// dead-recovery.
	StaleAfter int
	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (c *Config) heartbeat() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 250 * time.Millisecond
}

func (c *Config) poll() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 500 * time.Millisecond
}

func (c *Config) staleAfter() int {
	if c.StaleAfter > 0 {
		return c.StaleAfter
	}
	return 20
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Status summarizes one shard process's campaign participation.
type Status struct {
	// Completed lists the slices this process executed to completion
	// (its own and any stolen ones).
	Completed []int
	// Stolen lists the subset of Completed acquired by takeover from a
	// dead or hung owner.
	Stolen []int
	// ObservedDone lists the slices other shards completed.
	ObservedDone []int
	// LostSlices counts lease losses: slices this process was working
	// on when another shard declared it hung and took over.
	LostSlices int
}

// staleTrack is the per-slice staleness observation state.
type staleTrack struct {
	lease Lease
	polls int
}

// Run participates in a campaign until this shard's work is done: its
// own slice first, then — with Steal — every other incomplete slice,
// polling and taking over dead or hung owners, until all slices have
// results. Completed slices (valid result.json) are never re-run. The
// returned Status says what this process did; an error means this
// process failed, not necessarily the campaign (survivors steal its
// slice).
func Run(ctx context.Context, cfg Config) (*Status, error) {
	m := cfg.Manifest
	if m == nil {
		return nil, fmt.Errorf("shard: nil manifest")
	}
	n := len(m.Slices)
	if cfg.ShardID < 0 || cfg.ShardID >= n {
		return nil, fmt.Errorf("shard: shard id %d out of range [0,%d)", cfg.ShardID, n)
	}
	// Own slice first, then the others in ring order, so concurrent
	// healthy shards spread out instead of piling onto slice 0.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, (cfg.ShardID+i)%n)
	}

	st := &Status{}
	done := make([]bool, n)
	stale := make(map[int]staleTrack, n)

	for {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		allDone := true
		for _, s := range order {
			if done[s] {
				continue
			}
			if !cfg.Steal && s != cfg.ShardID {
				continue
			}
			sdir := SliceDir(cfg.Dir, s)
			res, err := ReadSliceResult(sdir, m.fingerprint, s)
			if err != nil {
				return st, err
			}
			if res != nil {
				done[s] = true
				if res.Owner != cfg.Owner {
					st.ObservedDone = append(st.ObservedDone, s)
				}
				continue
			}
			allDone = false
			h, obs, err := TryAcquire(sdir, cfg.Owner)
			if err != nil {
				return st, err
			}
			stolenFromLive := false
			if h == nil {
				// A live process owns the slice. Track its heartbeat;
				// steal only after StaleAfter frozen observations.
				tr, seen := stale[s]
				if seen && tr.lease == obs {
					tr.polls++
				} else {
					tr = staleTrack{lease: obs}
				}
				stale[s] = tr
				if tr.polls < cfg.staleAfter() {
					continue
				}
				h, obs, err = Steal(sdir, cfg.Owner, tr.lease)
				if err != nil {
					return st, err
				}
				stale[s] = staleTrack{lease: obs}
				if h == nil {
					continue // owner advanced between observations
				}
				stolenFromLive = true
				cfg.logf("shard: slice %d owner %q hung (beat frozen for %d polls); stolen as epoch %d",
					s, tr.lease.Owner, tr.polls, h.Epoch())
			} else if obs.Epoch > 1 {
				cfg.logf("shard: slice %d owner dead; taken over as epoch %d", s, obs.Epoch)
			}
			completed, err := runSlice(ctx, &cfg, s, h)
			if err != nil {
				return st, err
			}
			if completed {
				done[s] = true
				st.Completed = append(st.Completed, s)
				if stolenFromLive || h.Epoch() > 1 {
					st.Stolen = append(st.Stolen, s)
				}
			} else {
				st.LostSlices++
			}
		}
		if allDone {
			return st, nil
		}
		if !cfg.Steal && done[cfg.ShardID] {
			return st, nil
		}
		if err := sleepCtx(ctx, cfg.poll()); err != nil {
			return st, err
		}
	}
}

// runSlice executes one owned slice under its lease: the pipeline
// callback runs with a heartbeat goroutine beating the lease from the
// callback's progress counter, and the result is published only if the
// lease survived. It returns false (no error) when the lease was lost
// mid-run — the thief finishes the slice.
func runSlice(ctx context.Context, cfg *Config, s int, h *Handle) (bool, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var progressFn atomic.Value // func() uint64
	sr := &SliceRun{
		Index:  s,
		Dir:    SliceDir(cfg.Dir, s),
		Epoch:  h.Epoch(),
		Keys:   cfg.Manifest.Slices[s],
		Filter: Membership(cfg.Manifest.Slices[s]),
		SetProgress: func(fn func() uint64) {
			progressFn.Store(fn)
		},
	}

	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(cfg.heartbeat())
		defer t.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-t.C:
				var p uint64
				if fn, ok := progressFn.Load().(func() uint64); ok {
					p = fn()
				}
				if err := h.Beat(p); err != nil {
					// Lost (or lease I/O failed): stop the pipeline;
					// the slice belongs to someone else now.
					cancel()
					return
				}
			}
		}
	}()

	cfg.logf("shard: running slice %d (%d scheme(s)) as %s, epoch %d", s, len(sr.Keys), cfg.Owner, h.Epoch())
	out, err := cfg.Run(sctx, sr)
	cancel()
	<-hbDone

	if h.Lost() {
		cfg.logf("shard: slice %d lease lost mid-run; abandoning to the new owner", s)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("shard: slice %d: %w", s, err)
	}
	res := &SliceResult{
		Shards:     cfg.Manifest.Shards,
		Slice:      s,
		Owner:      cfg.Owner,
		Epoch:      h.Epoch(),
		Mapping:    out.Mapping,
		Unresolved: out.Unresolved,
		Excluded:   out.Excluded,
	}
	if err := WriteSliceResult(sr.Dir, cfg.Manifest.fingerprint, res); err != nil {
		return false, err
	}
	if err := h.Release(); err != nil {
		return false, err
	}
	cfg.logf("shard: slice %d complete (%d scheme(s) mapped, %d unresolved)", s, len(out.Mapping.Usage), len(out.Unresolved))
	return true, nil
}

// sleepCtx blocks for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
