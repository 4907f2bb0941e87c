package persist

import (
	"strings"
	"sync"
	"testing"

	"zenport/internal/engine"
)

// restoreRecorder is a minimal processor that records the execution
// counts the store restores per kernel.
type restoreRecorder struct {
	mu       sync.Mutex
	restored map[string]uint64
}

func newRestoreRecorder() *restoreRecorder {
	return &restoreRecorder{restored: make(map[string]uint64)}
}

func (r *restoreRecorder) Execute(kernel []string, iterations int) (engine.Counters, error) {
	return engine.Counters{Cycles: float64(iterations), Instructions: uint64(iterations), Ops: uint64(iterations)}, nil
}

func (r *restoreRecorder) NumPorts() int { return 4 }
func (r *restoreRecorder) Rmax() float64 { return 5 }

func (r *restoreRecorder) RestoreExecCount(kernel []string, executions uint64) {
	r.mu.Lock()
	r.restored[strings.Join(kernel, " ")] = executions
	r.mu.Unlock()
}

// TestRestoreExecCountsSumsRuns: the restored per-kernel execution
// count must be the sum of Result.Runs across generations — the
// adaptive engine escalates past Reps, so a fixed gens×Reps count
// would desynchronize resumed noise and fault streams.
func TestRestoreExecCountsSumsRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	s.Record(0, "1*add", engine.Result{InvThroughput: 0.25, Runs: 11, Quality: engine.Quality{Kept: 11}})
	s.Record(1, "1*add", engine.Result{InvThroughput: 0.25, Runs: 33, Quality: engine.Quality{Kept: 30, Rejected: 3}})
	s.Record(0, "1*imul", engine.Result{InvThroughput: 1.0, Runs: 11, Quality: engine.Quality{Kept: 11}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	proc := newRestoreRecorder()
	eng := engine.New(proc)
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	if got := proc.restored["add"]; got != 44 {
		t.Errorf("restored add = %d, want 11+33 = 44", got)
	}
	if got := proc.restored["imul"]; got != 11 {
		t.Errorf("restored imul = %d, want 11", got)
	}
}
