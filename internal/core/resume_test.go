package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/persist"
	"zenport/internal/portmodel"
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

const resumeFP = "resume-test seed=42 noise=0.001"

// loadCheckpoint reads the checkpoint in dir; its Stage is 0 when
// there is none.
func loadCheckpoint(t *testing.T, dir string) checkpoint {
	t.Helper()
	ck, err := persist.NewCheckpointer(dir, resumeFP)
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpoint
	if _, err := ck.Load(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
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
	store, err := persist.Open(dir, resumeFP)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately never closed: a killed process does not compact
	// either. Recovery must work from the raw journal alone.
	if err := store.Attach(h); err != nil {
		t.Fatal(err)
	}
	ck, err := persist.NewCheckpointer(dir, resumeFP)
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
		if got := loadCheckpoint(t, dir).Stage; got != 3 {
			t.Fatalf("workers=%d: checkpoint after crash is at stage %d, want 3 — crash did not land in stage 4", workers, got)
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
	if got := loadCheckpoint(t, dir).Stage; got >= 3 {
		t.Fatalf("checkpoint after crash is at stage %d — crash did not land before stage 3", got)
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

	if got := loadCheckpoint(t, dir).Stage; got != 4 {
		t.Fatalf("checkpoint of a finished run is at stage %d, want 4", got)
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

// TestPipelineResumeUnderOtherOptions: a checkpoint written under
// options that change the answer is not resumed from. A MaxSlack 0.5
// run killed after stage 3, resumed with MaxSlack 0, recomputes
// stages 1–3 on the journaled measurements instead of loading the old
// blocker mapping, and finishes with a checkpoint under the new
// options.
func TestPipelineResumeUnderOtherOptions(t *testing.T) {
	db := zen.Build()
	schemes := goldenSubset(db)
	dir := t.TempDir()

	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	first, _ := newPersistedPipeline(t, dir, schemes, 4, math.MaxInt64, false)
	first.Opts.MaxSlack = 0.5
	first.Opts.Log = func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.HasPrefix(format, "stage 3: blocker mapping") {
			kill()
		}
	}
	if _, err := first.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: err = %v, want context canceled", err)
	}
	if got := loadCheckpoint(t, dir).Stage; got != 3 {
		t.Fatalf("checkpoint after the kill is at stage %d, want 3", got)
	}

	resumed, proc := newPersistedPipeline(t, dir, schemes, 4, math.MaxInt64, true)
	var lines []string
	stage3Calls := int64(-1)
	resumed.Opts.Log = func(format string, args ...any) {
		t.Logf(format, args...)
		lines = append(lines, format)
		if strings.HasPrefix(format, "stage 3: blocker mapping") {
			stage3Calls = proc.calls.Load()
		}
	}
	if _, err := resumed.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, "resume: checkpoint options") }) {
		t.Error("the options change was not logged")
	}
	if slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, "resume: restored") }) {
		t.Error("the resumed run restored a checkpoint written under other options")
	}
	if stage3Calls < 0 {
		t.Fatal("stage 3 did not run again")
	}
	if stage3Calls != 0 {
		t.Errorf("stages 1–3 executed %d kernels; their measurements are journaled", stage3Calls)
	}
	if doc := loadCheckpoint(t, dir); doc.Stage != 4 || doc.Options != resumed.Opts.answerKey() {
		t.Errorf("final checkpoint at stage %d under %q, want stage 4 under %q", doc.Stage, doc.Options, resumed.Opts.answerKey())
	}
}

// TestPipelineResumeIgnoresLegacyCheckpoints: the per-stage files
// older builds wrote are not read. A resume over a directory holding
// only those — here doctored to claim a finished run with an empty
// mapping — runs the pipeline, writes the uninterrupted run's mapping
// bytes, and leaves only its own checkpoint behind.
func TestPipelineResumeIgnoresLegacyCheckpoints(t *testing.T) {
	db := zen.Build()
	schemes := goldenSubset(db)

	ref, _ := newZenPipeline(t, schemes, 42)
	refRep, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.Marshal(refRep.Final)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := map[string]any{"report": &Report{InitialSchemes: len(schemes), Final: portmodel.NewMapping(10)}}
	for _, name := range []string{"stage1", "stage2", "stage3", "stage4-run0", "final"} {
		if err := persist.WriteDocument(filepath.Join(dir, "checkpoints", name+".ckpt.json"), resumeFP, legacy); err != nil {
			t.Fatal(err)
		}
	}
	resumed, _ := newPersistedPipeline(t, dir, schemes, 4, math.MaxInt64, true)
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep.Final)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatal("a resume over legacy checkpoint files changed the mapping")
	}
	left, err := filepath.Glob(filepath.Join(dir, "checkpoints", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || filepath.Base(left[0]) != "pipeline.ckpt.json" {
		t.Errorf("checkpoint directory holds %v, want only pipeline.ckpt.json", left)
	}
}
