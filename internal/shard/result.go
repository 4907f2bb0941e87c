package shard

import (
	"fmt"
	"path/filepath"

	"zenport/internal/persist"
	"zenport/internal/portmodel"
)

// resultFile is the completion marker of a slice: its presence (a
// sealed document under the campaign fingerprint) means the slice was
// fully characterized and its outcome is final. It is written
// atomically as the owner's last act, so other shards and the merge
// treat existence as completion.
const resultFile = "result.json"

// SliceResult is one slice's published outcome. Mapping is the full
// mapping from the executing shard's perspective: the global base
// (blocker mapping and no-port schemes, byte-identical across shards
// by determinism) plus the slice's characterized schemes. The merge
// unions these, checking that overlapping keys agree.
type SliceResult struct {
	Shards int `json:"shards"`
	Slice  int `json:"slice"`
	// Owner and Epoch record which lease holder completed the slice —
	// diagnostic only; the measurement content is owner-independent.
	Owner string `json:"owner"`
	Epoch uint64 `json:"epoch"`
	// Mapping is the slice's inferred mapping (base + slice fragment).
	Mapping *portmodel.Mapping `json:"mapping"`
	// Unresolved lists slice schemes whose port usage the run could
	// not establish (solver budget, vote disagreement) — absent from
	// Mapping rather than wrong.
	Unresolved []string `json:"unresolved,omitempty"`
	// Excluded maps scheme keys to the reason they left the pipeline.
	// The early (stage 1–3) exclusions are global and identical in
	// every slice result; the merge uses them to classify the schemes
	// of slices that never reported.
	Excluded map[string]string `json:"excluded,omitempty"`
}

// WriteSliceResult atomically publishes a slice's outcome into its
// directory, sealed under the campaign fingerprint.
func WriteSliceResult(dir, fingerprint string, r *SliceResult) error {
	return persist.WriteDocument(filepath.Join(dir, resultFile), fingerprint, r)
}

// ReadSliceResult loads a slice's published outcome. A missing file
// returns (nil, nil) — the slice is simply not done. A present file
// that fails validation (damage, fingerprint, slice index, mapping) is
// a hard error, never silently ignored: it means the campaign
// directory mixes configurations, and treating that as "not done"
// would re-execute — and then merge — conflicting state.
func ReadSliceResult(dir, fingerprint string, slice int) (*SliceResult, error) {
	var r SliceResult
	ok, err := persist.ReadDocument(filepath.Join(dir, resultFile), fingerprint, &r)
	switch {
	case err != nil:
		return nil, fmt.Errorf("shard: result in %s: %w", dir, err)
	case !ok:
		return nil, nil
	case r.Slice != slice:
		return nil, fmt.Errorf("shard: result in %s claims slice %d, want %d", dir, r.Slice, slice)
	case r.Mapping == nil:
		return nil, fmt.Errorf("shard: result in %s has no mapping", dir)
	}
	return &r, nil
}
