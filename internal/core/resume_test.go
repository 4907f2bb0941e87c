package core

import (
	"encoding/json"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/persist"
	"zenport/internal/zen"
	"zenport/internal/zensim"
)

// errCrashed simulates a process death: after the injection point
// every measurement fails, aborting the run the way a kill would.
var errCrashed = errors.New("simulated crash")

// crashProc wraps the simulated machine and fails every Execute call
// past the limit. RestoreExecCount and the other Processor methods
// are promoted from the embedded machine, so the persistence layer
// sees a fully capable processor.
type crashProc struct {
	*zensim.Machine
	limit int64
	calls atomic.Int64
}

func (cp *crashProc) Execute(kernel []string, iterations int) (engine.Counters, error) {
	if cp.calls.Add(1) > cp.limit {
		return engine.Counters{}, errCrashed
	}
	return cp.Machine.Execute(kernel, iterations)
}

// newPersistedPipeline builds a pipeline over a fresh machine with a
// crash-safe store and checkpointer rooted at dir, as zeninfer
// -cache-dir does. limit bounds the number of successful processor
// executions.
func newPersistedPipeline(t *testing.T, dir string, schemes []isa.Scheme, workers int, limit int64, resume bool) (*Pipeline, *crashProc) {
	t.Helper()
	db := zen.Build()
	m := zensim.NewMachine(db, zensim.Config{Noise: 0.001, Seed: 42})
	proc := &crashProc{Machine: m, limit: limit}
	h := engine.New(proc)
	h.Workers = workers
	const fp = "resume-test seed=42 noise=0.001"
	store, err := persist.Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately never closed: a killed process does not compact
	// either. Recovery must work from the raw journal alone.
	if err := store.Attach(h); err != nil {
		t.Fatal(err)
	}
	ck, err := persist.NewCheckpointer(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Log = t.Logf
	opts.Checkpointer = ck
	opts.Resume = resume
	return NewPipeline(h, schemes, opts), proc
}

// TestPipelineKillAndResume is the tentpole's headline test: a run
// killed mid-stage-4 and resumed with -resume semantics must produce
// a final mapping JSON byte-identical to an uninterrupted run — at 1,
// 4, and 16 workers — while re-executing only the experiments the
// interrupted run had not finished.
func TestPipelineKillAndResume(t *testing.T) {
	db := zen.Build()
	schemes := goldenSubset(db)

	// Reference: one uninterrupted, unpersisted run.
	ref, _ := newZenPipeline(t, schemes, 42)
	ref.H.Workers = 4
	refRep, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.MarshalIndent(refRep.Final, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	refExec := ref.H.Metrics().Executed
	if refExec == 0 {
		t.Fatal("reference run executed nothing")
	}

	// crashProc counts raw processor calls, so the injection point is
	// set from the reference run's own ProcessorCalls metric (adaptive
	// escalation makes the per-experiment call count variable). The
	// stage-4 characterization grids dominate the execution count
	// (3 runs, each re-measuring the scheme×blocker grid), so failing
	// at 85% of the reference volume lands inside stage 4.
	crashAt := int64(ref.H.Metrics().ProcessorCalls) * 85 / 100

	workerSweep := []int{1, 4, 16}
	if raceEnabled {
		// One concurrent worker count is enough race coverage; the
		// full sweep is the non-race golden test.
		workerSweep = []int{4}
	}
	for _, workers := range workerSweep {
		dir := t.TempDir()

		crashed, _ := newPersistedPipeline(t, dir, schemes, workers, crashAt, false)
		if _, err := crashed.Run(); !errors.Is(err, errCrashed) {
			t.Fatalf("workers=%d: interrupted run: err = %v, want simulated crash", workers, err)
		}
		// The kill must have landed mid-stage-4: stage 3 completed and
		// checkpointed, the final report did not.
		ck, err := persist.NewCheckpointer(dir, "resume-test seed=42 noise=0.001")
		if err != nil {
			t.Fatal(err)
		}
		var probe stageCheckpoint
		if ok, err := ck.Load("stage3", &probe); err != nil || !ok {
			t.Fatalf("workers=%d: stage3 checkpoint after crash: ok=%v err=%v — crash landed before stage 4", workers, ok, err)
		}
		if ok, _ := ck.Load("final", &probe); ok {
			t.Fatalf("workers=%d: final checkpoint exists — crash landed after stage 4", workers)
		}

		resumed, _ := newPersistedPipeline(t, dir, schemes, workers, math.MaxInt64, true)
		rep, err := resumed.Run()
		if err != nil {
			t.Fatalf("workers=%d: resumed run: %v", workers, err)
		}
		data, err := json.MarshalIndent(rep.Final, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(golden) {
			t.Fatalf("workers=%d: resumed mapping JSON differs from uninterrupted run", workers)
		}

		// Only unfinished experiments may re-execute: stages 1–3 and
		// the completed stage-4 runs are restored, so the resumed run
		// must need well under half the full run's processor work.
		resExec := resumed.H.Metrics().Executed
		if resExec >= refExec/2 {
			t.Errorf("workers=%d: resumed run executed %d experiments, full run needs %d — completed work was not reused",
				workers, resExec, refExec)
		}
		t.Logf("workers=%d: full run %d executions, resumed run %d", workers, refExec, resExec)
	}
}

// TestPipelineResumeAfterEarlyCrash kills the run during the early
// stages and checks the resumed output is still byte-identical.
func TestPipelineResumeAfterEarlyCrash(t *testing.T) {
	db := zen.Build()
	schemes := goldenSubset(db)

	ref, _ := newZenPipeline(t, schemes, 42)
	refRep, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.MarshalIndent(refRep.Final, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashed, _ := newPersistedPipeline(t, dir, schemes, 4, int64(ref.H.Metrics().ProcessorCalls)/5, false)
	if _, err := crashed.Run(); !errors.Is(err, errCrashed) {
		t.Fatalf("interrupted run: err = %v, want simulated crash", err)
	}
	resumed, _ := newPersistedPipeline(t, dir, schemes, 4, math.MaxInt64, true)
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rep.Final, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatal("resumed mapping JSON differs from uninterrupted run")
	}
}

// TestPipelineResumeCompletedRun: resuming a finished run restores the
// final report from its checkpoint without re-running any stage or
// measurement.
func TestPipelineResumeCompletedRun(t *testing.T) {
	db := zen.Build()
	schemes := goldenSubset(db)
	dir := t.TempDir()

	first, _ := newPersistedPipeline(t, dir, schemes, 4, math.MaxInt64, false)
	firstRep, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.MarshalIndent(firstRep.Final, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	again, proc := newPersistedPipeline(t, dir, schemes, 4, math.MaxInt64, true)
	rep, err := again.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := proc.calls.Load(); n != 0 {
		t.Errorf("resuming a completed run executed %d kernels, want 0", n)
	}
	data, err := json.MarshalIndent(rep.Final, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatal("restored mapping JSON differs from the original run")
	}
}
