package zenport_test

import (
	"math"
	"testing"

	"zenport"
)

func TestFacadeModelRoundTrip(t *testing.T) {
	m := zenport.NewMapping(2)
	m.Set("a", zenport.Usage{{Ports: zenport.MakePortSet(0, 1), Count: 1}})
	tp, err := m.InverseThroughput(zenport.Exp("a", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp-1) > 1e-9 {
		t.Fatalf("tp = %v", tp)
	}
}

func TestFacadeZenMachine(t *testing.T) {
	db := zenport.ZenDB()
	if db.Len() < 800 {
		t.Fatalf("db too small: %d", db.Len())
	}
	schemes := zenport.ZenSchemes(db)
	if len(schemes) != db.Len() {
		t.Fatalf("schemes %d != db %d", len(schemes), db.Len())
	}
	machine := zenport.NewZenMachine(db, zenport.SimConfig{Noise: -1})
	h := zenport.NewHarness(machine)
	tp, err := h.InvThroughput(zenport.Exp("add GPR[32], GPR[32]"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp-0.25) > 1e-9 {
		t.Fatalf("tp = %v", tp)
	}
	if machine.Rmax() != 5 || machine.NumPorts() != 10 {
		t.Fatal("machine parameters wrong")
	}
}

func TestFacadeInferSmall(t *testing.T) {
	db := zenport.ZenDB()
	machine := zenport.NewZenMachine(db, zenport.SimConfig{Noise: -1})
	h := zenport.NewHarness(machine)
	keys := []string{
		"add GPR[32], GPR[32]", "vpor XMM, XMM, XMM", "vminps XMM, XMM, XMM",
		"mov GPR[32], MEM[32]", "vpslld XMM, XMM, XMM",
		"mov MEM[32], GPR[32]", "vmovapd MEM[128], XMM",
		"add GPR[32], MEM[32]",
	}
	var schemes []zenport.Scheme
	for _, k := range keys {
		schemes = append(schemes, db.MustGet(k).Scheme)
	}
	rep, err := zenport.Infer(h, schemes, zenport.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supported() < 6 {
		t.Fatalf("covered only %d schemes", rep.Supported())
	}
	// The inferred mapping predicts a held-out mixture correctly.
	e := zenport.Experiment{"add GPR[32], GPR[32]": 2, "vminps XMM, XMM, XMM": 2}
	pred, err := rep.Final.InverseThroughputBounded(e, machine.Rmax())
	if err != nil {
		t.Fatal(err)
	}
	meas, err := h.InvThroughput(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-meas) > 0.1 {
		t.Fatalf("pred %v vs measured %v", pred, meas)
	}
}

// TestRunFingerprintDefault pins the cache key of a default zeninfer
// run (seed 2600, noise 0.001, no chaos): caches written by earlier
// builds stay valid only while both halves keep these bytes.
func TestRunFingerprintDefault(t *testing.T) {
	machine := zenport.NewZenMachine(zenport.ZenDB(), zenport.SimConfig{Noise: 0.001, Seed: 2600})
	h := zenport.NewHarness(machine)
	const want = "zensim:v1 backend=0 seed=2600 noise=0.001 perport=false anomalies=true|" +
		"engine:v2 reps=11 iters=100 eps=0.02 qspread=0.05 maxreps=33"
	if got := zenport.RunFingerprint(machine, h.Engine); got != want {
		t.Fatalf("default RunFingerprint\n got %q\nwant %q", got, want)
	}
}
