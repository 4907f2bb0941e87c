package shard

import (
	"fmt"
	"reflect"
	"sort"

	"zenport/internal/persist"
	"zenport/internal/portmodel"
)

// MergeReport is the outcome of merging a campaign directory.
type MergeReport struct {
	// Mapping is the merged port mapping: the union of every reporting
	// slice's mapping, with overlapping keys validated equal.
	Mapping *portmodel.Mapping
	// Unresolved lists schemes absent from Mapping: the slices' own
	// unresolved schemes plus every stage-4-eligible scheme of a slice
	// that never reported. Sorted.
	Unresolved []string
	// MissingSlices lists the slices without a result — the campaign
	// completed degraded, not dead. Sorted.
	MissingSlices []int
	// Slices counts the slices that reported.
	Slices int
	// Records counts the distinct measurement records in the campaign
	// root's compacted snapshot — the slices share the global early
	// stages, so this is less than the sum of per-slice records.
	Records int
}

// Degraded reports whether any slice failed to report.
func (r *MergeReport) Degraded() bool { return len(r.MissingSlices) > 0 }

// Merge validates and merges a sharded campaign directory into one
// mapping and one compacted measurement snapshot at the campaign root.
// fingerprint must be the current configuration's fingerprint; the
// manifest, every slice result, and every slice's persisted journals
// and snapshots are validated against it — a mismatch anywhere is a
// hard error, because merging measurements from a different
// configuration would produce a mapping that is confidently wrong
// rather than visibly degraded.
//
// Missing slices degrade the merge instead of failing it: their
// stage-4-eligible schemes (not excluded by the global early stages,
// not already in the merged mapping as blockers or no-port schemes)
// are flagged Unresolved — exactly the "absent rather than wrong"
// contract the pipeline uses for schemes it could not characterize —
// so a re-run or a later merge can pick them up. At least one slice
// must have reported: with zero results there is no base mapping and
// nothing to degrade from.
//
// The caller must hold the campaign directory's exclusive lock
// (persist.LockDir): the merge writes the root's epoch-0 persist
// files, and a concurrent merge or non-sharded run would race it.
// log receives the root store's notices, such as a stale or corrupt
// root snapshot or journal being discarded; nil drops them.
func Merge(dir, fingerprint string, log func(format string, args ...any)) (*MergeReport, error) {
	m, err := readManifest(dir, fingerprint)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("shard: %s is not a campaign directory (no %s)", dir, manifestFile)
	}

	rep := &MergeReport{}
	var results []*SliceResult
	for i := range m.Slices {
		r, err := ReadSliceResult(SliceDir(dir, i), fingerprint, i)
		if err != nil {
			return nil, err
		}
		if r == nil {
			rep.MissingSlices = append(rep.MissingSlices, i)
			continue
		}
		if r.Shards != m.Shards {
			return nil, fmt.Errorf("shard: slice %d result claims %d shard(s), manifest says %d", i, r.Shards, m.Shards)
		}
		results = append(results, r)
	}
	rep.Slices = len(results)
	if len(results) == 0 {
		return nil, fmt.Errorf("shard: campaign %s has no completed slices to merge", dir)
	}

	// Union the slice mappings. Overlapping keys — the global base
	// every shard re-derives — must agree exactly; a disagreement
	// means the slices did not actually share a configuration and the
	// merge must not guess which one to trust.
	merged := portmodel.NewMapping(results[0].Mapping.NumPorts)
	for _, r := range results {
		if r.Mapping.NumPorts != merged.NumPorts {
			return nil, fmt.Errorf("shard: slice %d mapping has %d ports, slice %d has %d",
				r.Slice, r.Mapping.NumPorts, results[0].Slice, merged.NumPorts)
		}
		for _, key := range r.Mapping.Keys() {
			u, _ := r.Mapping.Get(key)
			if have, ok := merged.Get(key); ok {
				if !reflect.DeepEqual(have, u) {
					return nil, fmt.Errorf("shard: slice %d disagrees with an earlier slice on %q (%s vs %s)",
						r.Slice, key, u, have)
				}
				continue
			}
			merged.Set(key, u)
		}
		for _, key := range r.Unresolved {
			rep.Unresolved = appendUnique(rep.Unresolved, key)
		}
	}
	rep.Mapping = merged

	// Degrade missing slices: every scheme of theirs that the global
	// early stages did not exclude and that is not already in the
	// merged mapping (blockers and no-port schemes are) is unresolved.
	// The early exclusions are identical in every slice result, so any
	// reporting slice serves as the reference.
	ref := results[0]
	for _, i := range rep.MissingSlices {
		for _, key := range m.Slices[i] {
			if _, ok := merged.Get(key); ok {
				continue
			}
			if ref.Excluded[key] != "" {
				continue
			}
			rep.Unresolved = appendUnique(rep.Unresolved, key)
		}
	}
	sort.Strings(rep.Unresolved)

	// Absorb every slice's persisted measurements — including those of
	// crashed shards that never reported — into one compacted snapshot
	// at the campaign root, so follow-up runs (retrying the unresolved
	// schemes, or a full single-process run) start cache-warm.
	store, err := persist.Open(dir, fingerprint)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	store.SetLog(log)
	for i := range m.Slices {
		recs, err := persist.ReadState(SliceDir(dir, i), fingerprint)
		if err != nil {
			return nil, fmt.Errorf("shard: slice %d persisted state: %w", i, err)
		}
		store.AbsorbRecords(recs)
	}
	rep.Records = store.RecordCount()
	if err := store.Compact(); err != nil {
		return nil, err
	}
	return rep, nil
}

// appendUnique appends k to list only if absent (the lists stay small).
func appendUnique(list []string, k string) []string {
	for _, v := range list {
		if v == k {
			return list
		}
	}
	return append(list, k)
}
