package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zenport/internal/portmodel"
)

// TestMergeLogsDiscardedRootSnapshot: a merge over a campaign root
// whose snapshot is corrupt discards it, as every store open does, and
// says so in the merge's log instead of dropping the notice.
func TestMergeLogsDiscardedRootSnapshot(t *testing.T) {
	const fp = "merge-log-test"
	dir := t.TempDir()
	keys := []string{"add", "mul"}
	if _, err := EnsureManifest(dir, fp, 1, keys); err != nil {
		t.Fatal(err)
	}
	m := portmodel.NewMapping(2)
	m.Set("add", portmodel.Usage{{Ports: portmodel.MakePortSet(0, 1), Count: 1}})
	m.Set("mul", portmodel.Usage{{Ports: portmodel.MakePortSet(1), Count: 1}})
	slice := SliceDir(dir, 0)
	if err := os.MkdirAll(slice, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteSliceResult(slice, fp, &SliceResult{Shards: 1, Slice: 0, Mapping: m}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	rep, err := Merge(dir, fp, func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mapping.Usage) != len(keys) {
		t.Fatalf("merged mapping covers %d schemes, want %d", len(rep.Mapping.Usage), len(keys))
	}
	if len(logged) != 1 || !strings.HasPrefix(logged[0], "persist: discarding snapshot.json: ") {
		t.Fatalf("merge logged %q, want one discard notice for snapshot.json", logged)
	}
}
