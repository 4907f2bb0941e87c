package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"zenport/internal/chaos"
	"zenport/internal/core"
	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/persist"
	"zenport/internal/portmodel"
	"zenport/internal/shard"
	"zenport/internal/zen"
	"zenport/internal/zensim"
)

// The shard soak proves the tentpole claim end to end: a campaign
// partitioned across shard processes — including one shard SIGKILLed
// mid-stage-4 and its slice stolen by a survivor — merges to a mapping
// byte-identical to the single-process golden run. The kill is a real
// process death (os.Exit(137) via the chaos crash fault, no deferred
// cleanup, flocks released by the kernel), exercised through the
// re-exec'd test binary.

const (
	soakSeed      = 42
	soakChaosSeed = 1234
	soakShards    = 3

	envHelper  = "ZENPORT_SHARD_SOAK_HELPER"
	envDir     = "ZENPORT_SHARD_DIR"
	envID      = "ZENPORT_SHARD_ID"
	envWorkers = "ZENPORT_SHARD_WORKERS"
	envCrash   = "ZENPORT_SHARD_CRASH"
)

// soakKeys mirrors the chaos soak's golden subset: six blocking
// classes, improper blockers, multi-µop schemes, and a no-port scheme,
// so every pipeline stage runs in every shard while staying small
// enough to repeat across processes.
func soakKeys() []string {
	return []string{
		"add GPR[32], GPR[32]",
		"vpor XMM, XMM, XMM",
		"vpaddd XMM, XMM, XMM",
		"vminps XMM, XMM, XMM",
		"mov GPR[32], MEM[32]",
		"vpslld XMM, XMM, XMM",
		"sub GPR[32], GPR[32]",
		"vpand XMM, XMM, XMM",
		"mov MEM[32], GPR[32]",
		"vmovapd MEM[128], XMM",
		"add GPR[32], MEM[32]",
		"add MEM[32], GPR[32]",
		"vpor YMM, YMM, YMM",
		"nop",
		"mov GPR[64], GPR[64]",
	}
}

func soakSchemes(db *zen.DB) []isa.Scheme {
	var out []isa.Scheme
	for _, k := range soakKeys() {
		out = append(out, db.MustGet(k).Scheme)
	}
	return out
}

// soakRegime is a mild chaos mix (transients, outliers, stuck
// counters): the shards must converge on the fault-free golden bytes
// *through* the fault regime, same as the single-process chaos soak.
func soakRegime() chaos.Regime {
	return chaos.Regime{
		TransientRate: 0.02,
		MaxPreFaults:  2,
		OutlierRate:   0.01,
		OutlierFactor: 10,
		StuckRate:     0.005,
	}
}

// newSoakProcessor builds the chaos-wrapped simulated machine of one
// shard process. crashAfter > 0 arms the process-kill fault.
func newSoakProcessor(db *zen.DB, crashAfter uint64) *chaos.Processor {
	reg := soakRegime()
	reg.CrashAfterCalls = crashAfter
	m := zensim.NewMachine(db, zensim.Config{Noise: 0.001, Seed: soakSeed})
	return chaos.New(m, soakChaosSeed, reg)
}

// campaignFingerprint computes the fingerprint every shard of the soak
// campaign runs under. CrashAfterCalls is absent from the chaos
// fingerprint by design, so the killed shard and its thief agree.
func campaignFingerprint() string {
	db := zen.Build()
	cp := newSoakProcessor(db, 0)
	h := engine.New(cp)
	return cp.Fingerprint() + "|" + h.Fingerprint()
}

// sliceRunCallback wires one slice execution the way cmd/zeninfer
// does: fresh machine, chaos wrapper, epoch-scoped persist store,
// slice-local checkpointer, resume on, stage 4 filtered to the slice.
func sliceRunCallback(workers int, crashAfter uint64, logf func(string, ...any)) func(context.Context, *shard.SliceRun) (*shard.Outcome, error) {
	return func(ctx context.Context, sr *shard.SliceRun) (*shard.Outcome, error) {
		db := zen.Build()
		cp := newSoakProcessor(db, crashAfter)
		h := engine.New(cp)
		h.Workers = workers
		fp := cp.Fingerprint() + "|" + h.Fingerprint()
		store, err := persist.OpenEpoch(sr.Dir, fp, sr.Epoch)
		if err != nil {
			return nil, err
		}
		defer store.Close()
		if err := store.Attach(h); err != nil {
			return nil, err
		}
		ck, err := persist.NewCheckpointer(sr.Dir, fp)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Checkpointer = ck
		opts.Resume = true
		opts.CharacterizeFilter = sr.Filter
		opts.Log = logf
		sr.SetProgress(h.Progress)
		rep, err := core.NewPipeline(h, soakSchemes(db), opts).RunContext(ctx)
		if err != nil {
			return nil, err
		}
		exc := make(map[string]string, len(rep.Excluded))
		for k, r := range rep.Excluded {
			exc[k] = string(r)
		}
		return &shard.Outcome{Mapping: rep.Final, Unresolved: rep.Unresolved, Excluded: exc}, nil
	}
}

// TestMain intercepts the helper re-exec: with the helper env set, the
// test binary becomes one shard process of the campaign instead of a
// test runner.
func TestMain(m *testing.M) {
	if os.Getenv(envHelper) == "1" {
		runShardHelper()
		return
	}
	os.Exit(m.Run())
}

// runShardHelper is one campaign shard process. It exits 0 when the
// whole campaign completes (work stealing included); the armed shard
// never returns from its pipeline — the chaos crash kills it with
// status 137 first.
func runShardHelper() {
	dir := os.Getenv(envDir)
	id, _ := strconv.Atoi(os.Getenv(envID))
	workers, _ := strconv.Atoi(os.Getenv(envWorkers))
	crash, _ := strconv.ParseUint(os.Getenv(envCrash), 10, 64)
	man, err := shard.EnsureManifest(dir, campaignFingerprint(), soakShards, soakKeys())
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper manifest:", err)
		os.Exit(1)
	}
	cfg := shard.Config{
		Dir:               dir,
		Owner:             fmt.Sprintf("shard-%d", id),
		ShardID:           id,
		Manifest:          man,
		Run:               sliceRunCallback(workers, crash, nil),
		Steal:             true,
		HeartbeatInterval: 50 * time.Millisecond,
		PollInterval:      100 * time.Millisecond,
		// Generous hung threshold: the kill path detects death via the
		// released flock instantly, and live shards must not be stolen
		// from during slow solver phases.
		StaleAfter: 100,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[shard %d] "+format+"\n", append([]any{id}, args...)...)
		},
	}
	if _, err := shard.Run(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "helper run:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

var (
	goldenOnce sync.Once
	goldenJSON []byte
	goldenErr  error
)

// soakGolden is the fault-free single-process reference mapping,
// computed once per test binary.
func soakGolden(t *testing.T) []byte {
	t.Helper()
	goldenOnce.Do(func() {
		db := zen.Build()
		h := engine.New(zensim.NewMachine(db, zensim.Config{Noise: 0.001, Seed: soakSeed}))
		h.Workers = 4
		rep, err := core.NewPipeline(h, soakSchemes(db), core.DefaultOptions()).Run()
		if err != nil {
			goldenErr = err
			return
		}
		if rep.Supported() == 0 {
			goldenErr = errors.New("golden run characterized nothing")
			return
		}
		goldenJSON, goldenErr = json.MarshalIndent(rep.Final, "", "  ")
	})
	if goldenErr != nil {
		t.Fatalf("golden single-process run: %v", goldenErr)
	}
	return goldenJSON
}

// calibrateCrash sizes the kill point of the victim shard: a reference
// run of the victim's exact configuration reports how many successful
// executions stages 1–3 consume and how many the whole slice takes;
// the crash is placed ~40% into stage 4, so the victim dies with its
// stage-3 checkpoint written and its slice half-characterized.
func calibrateCrash(t *testing.T, victimSlice []string, workers int) uint64 {
	t.Helper()
	db := zen.Build()
	cp := newSoakProcessor(db, 0)
	h := engine.New(cp)
	h.Workers = workers
	opts := core.DefaultOptions()
	opts.CharacterizeFilter = shard.Membership(victimSlice)
	var stage3Rounds uint64
	opts.Log = func(format string, args ...any) {
		if strings.HasPrefix(format, "stage 3:") {
			stage3Rounds = cp.Ledger().Rounds
		}
	}
	if _, err := core.NewPipeline(h, soakSchemes(db), opts).Run(); err != nil {
		t.Fatalf("calibration run: %v", err)
	}
	total := cp.Ledger().Rounds
	if stage3Rounds == 0 || stage3Rounds >= total {
		t.Fatalf("calibration: stage3=%d total=%d, cannot place a mid-stage-4 crash", stage3Rounds, total)
	}
	crashAt := stage3Rounds + (total-stage3Rounds)*40/100
	t.Logf("calibration: stage1-3 %d rounds, slice total %d, crash at %d", stage3Rounds, total, crashAt)
	return crashAt
}

// TestShardCampaignKillAndSteal is the acceptance soak: three shard
// processes at 1/4/16 workers, the middle one SIGKILLed mid-stage-4;
// the survivors steal its slice via lease takeover, and the merged
// mapping is byte-identical to the single-process golden.
func TestShardCampaignKillAndSteal(t *testing.T) {
	golden := soakGolden(t)
	fp := campaignFingerprint()
	slices := shard.Partition(soakKeys(), soakShards)
	const victim = 1
	crashAt := calibrateCrash(t, slices[victim], 4)

	dir := t.TempDir()
	workers := []int{1, 4, 16}
	cmds := make([]*exec.Cmd, soakShards)
	outs := make([]*bytes.Buffer, soakShards)
	for id := 0; id < soakShards; id++ {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			envHelper+"=1",
			envDir+"="+dir,
			envID+"="+strconv.Itoa(id),
			envWorkers+"="+strconv.Itoa(workers[id]),
		)
		if id == victim {
			cmd.Env = append(cmd.Env, envCrash+"="+strconv.FormatUint(crashAt, 10))
		}
		buf := &bytes.Buffer{}
		cmd.Stdout = buf
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting shard %d: %v", id, err)
		}
		cmds[id] = cmd
		outs[id] = buf
	}

	for id, cmd := range cmds {
		err := cmd.Wait()
		if id == victim {
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 137 {
				t.Fatalf("victim shard exit = %v, want exit status 137 (SIGKILL)\n%s", err, outs[id])
			}
			continue
		}
		if err != nil {
			t.Fatalf("shard %d failed: %v\n%s", id, err, outs[id])
		}
	}

	// The victim's slice must have been taken over: a later lease
	// epoch, and a result published by someone else.
	vdir := shard.SliceDir(dir, victim)
	lease, err := shard.Observe(vdir)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Epoch < 2 {
		t.Fatalf("victim slice lease epoch = %d, want >= 2 (takeover)", lease.Epoch)
	}
	res, err := shard.ReadSliceResult(vdir, fp, victim)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("victim slice has no result — nobody stole it")
	}
	if res.Owner == fmt.Sprintf("shard-%d", victim) {
		t.Fatalf("victim slice result owner = %q — the dead shard cannot have finished it", res.Owner)
	}
	t.Logf("victim slice stolen by %q at epoch %d (lease epoch %d)", res.Owner, res.Epoch, lease.Epoch)

	mrep, err := shard.Merge(dir, fp, t.Logf)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if mrep.Degraded() {
		t.Fatalf("merge degraded, missing slices %v — the steal did not complete the campaign", mrep.MissingSlices)
	}
	if len(mrep.Unresolved) != 0 {
		t.Fatalf("merge left schemes unresolved: %v", mrep.Unresolved)
	}
	data, err := json.MarshalIndent(mrep.Mapping, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatal("merged sharded mapping differs from single-process golden")
	}
	// The merge also absorbed every shard's measurements into one
	// snapshot at the campaign root.
	recs, err := persist.ReadState(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) != mrep.Records {
		t.Fatalf("campaign root snapshot holds %d records, merge reported %d", len(recs), mrep.Records)
	}
}

// TestShardCampaignInProcess: a healthy (no-kill) campaign run shard
// by shard in one process, each shard at a different worker count,
// merges to the golden bytes. Under the race detector this is covered
// by the subprocess soak (whose shards re-exec the race-built binary).
func TestShardCampaignInProcess(t *testing.T) {
	if raceEnabled {
		t.Skip("covered by TestShardCampaignKillAndSteal under race")
	}
	golden := soakGolden(t)
	fp := campaignFingerprint()
	dir := t.TempDir()
	man, err := shard.EnsureManifest(dir, fp, soakShards, soakKeys())
	if err != nil {
		t.Fatal(err)
	}
	for id, workers := range []int{1, 4, 16} {
		cfg := shard.Config{
			Dir:      dir,
			Owner:    fmt.Sprintf("inproc-%d", id),
			ShardID:  id,
			Manifest: man,
			Run:      sliceRunCallback(workers, 0, nil),
			Steal:    false,
			Log:      t.Logf,
		}
		st, err := shard.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", id, err)
		}
		if len(st.Completed) != 1 || st.Completed[0] != id {
			t.Fatalf("shard %d completed %v, want its own slice only", id, st.Completed)
		}
	}
	mrep, err := shard.Merge(dir, fp, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Degraded() || len(mrep.Unresolved) != 0 {
		t.Fatalf("healthy campaign merged degraded: missing %v unresolved %v", mrep.MissingSlices, mrep.Unresolved)
	}
	data, err := json.MarshalIndent(mrep.Mapping, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatal("in-process sharded mapping differs from single-process golden")
	}
}

// TestShardMergeMissingSlice: a merge over a campaign whose middle
// shard never reported completes degraded — the missing slice's
// stage-4-eligible schemes are flagged Unresolved, everything present
// matches the golden mapping key for key.
func TestShardMergeMissingSlice(t *testing.T) {
	golden := soakGolden(t)
	fp := campaignFingerprint()
	dir := t.TempDir()
	man, err := shard.EnsureManifest(dir, fp, soakShards, soakKeys())
	if err != nil {
		t.Fatal(err)
	}
	const missing = 1
	for _, id := range []int{0, 2} {
		cfg := shard.Config{
			Dir:      dir,
			Owner:    fmt.Sprintf("partial-%d", id),
			ShardID:  id,
			Manifest: man,
			Run:      sliceRunCallback(4, 0, nil),
			Steal:    false,
			Log:      t.Logf,
		}
		if _, err := shard.Run(context.Background(), cfg); err != nil {
			t.Fatalf("shard %d: %v", id, err)
		}
	}
	mrep, err := shard.Merge(dir, fp, t.Logf)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !mrep.Degraded() {
		t.Fatal("merge with a missing slice did not report degradation")
	}
	if len(mrep.MissingSlices) != 1 || mrep.MissingSlices[0] != missing {
		t.Fatalf("missing slices = %v, want [%d]", mrep.MissingSlices, missing)
	}

	// Everything merged must agree with the golden mapping...
	var goldenMap portmodel.Mapping
	if err := json.Unmarshal(golden, &goldenMap); err != nil {
		t.Fatal(err)
	}
	for _, key := range mrep.Mapping.Keys() {
		got, _ := mrep.Mapping.Get(key)
		want, ok := goldenMap.Get(key)
		if !ok {
			t.Fatalf("merged mapping has %q, golden does not", key)
		}
		if got.String() != want.String() {
			t.Fatalf("merged %q = %s, golden %s", key, got, want)
		}
	}
	// ...and every scheme of the missing slice is accounted for:
	// merged (base), excluded by the global early stages, or flagged
	// Unresolved — degraded, never silently dropped.
	res0, err := shard.ReadSliceResult(shard.SliceDir(dir, 0), fp, 0)
	if err != nil || res0 == nil {
		t.Fatalf("slice 0 result: %v %v", res0, err)
	}
	unresolved := map[string]bool{}
	for _, k := range mrep.Unresolved {
		unresolved[k] = true
	}
	flagged := 0
	for _, key := range man.Slices[missing] {
		if _, ok := mrep.Mapping.Get(key); ok {
			continue
		}
		if res0.Excluded[key] != "" {
			continue
		}
		if !unresolved[key] {
			t.Fatalf("missing slice scheme %q neither merged, excluded, nor unresolved", key)
		}
		flagged++
	}
	if flagged == 0 {
		t.Fatal("missing slice contributed no unresolved schemes — degradation untested")
	}
	t.Logf("degraded merge: %d scheme(s) of slice %d flagged unresolved", flagged, missing)
}
