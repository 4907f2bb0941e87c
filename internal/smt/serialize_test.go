package smt

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"zenport/internal/portmodel"
)

// learnedToyInstance solves the toy setting until lemmas accumulate,
// so round-trip tests run over genuinely learned clauses rather than
// hand-built ones. Under the first SAT model, the [iA, iB] pair is
// modeled at either 1.0 (distinct ports) or 2.0 (shared port), so one
// of the two measured values must conflict and teach a lemma.
func learnedToyInstance(t *testing.T) (*Instance, []MeasuredExp) {
	t.Helper()
	for _, pairTInv := range []float64{1.0, 2.0} {
		in := toyInstance()
		exps := append(toyExps(), MeasuredExp{Exp: portmodel.Exp("iA", "iB"), TInv: pairTInv})
		if _, err := in.FindMapping(exps); err != nil {
			t.Fatal(err)
		}
		if in.LemmaCount() > 0 {
			return in, exps
		}
	}
	t.Fatal("no pair measurement conflicted with the first model; solver learned no lemmas")
	return nil, nil
}

// TestLemmaRecordsRoundTrip: exporting, JSON-encoding, and restoring
// lemmas into a structurally identical instance must leave the solver
// in an equivalent state — same lemma count, same solution.
func TestLemmaRecordsRoundTrip(t *testing.T) {
	in, exps := learnedToyInstance(t)
	want, err := in.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}

	recs := in.LemmaRecords()
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	var back []LemmaRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatal("lemma records changed across JSON")
	}

	fresh := toyInstance()
	if err := fresh.RestoreLemmas(back); err != nil {
		t.Fatal(err)
	}
	if fresh.LemmaCount() != in.LemmaCount() {
		t.Fatalf("restored %d lemmas, want %d", fresh.LemmaCount(), in.LemmaCount())
	}
	got, err := fresh.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Isomorphic(want) {
		t.Fatalf("restored instance solves to a different mapping:\n%v\nvs\n%v", got, want)
	}
}

// TestLemmaRecordsAreCopies: mutating an exported record must not
// reach back into the instance.
func TestLemmaRecordsAreCopies(t *testing.T) {
	in, _ := learnedToyInstance(t)
	recs := in.LemmaRecords()
	recs[0].Lits[0].Port = 999
	for k := range recs[0].Src {
		recs[0].Src[k] = 999
	}
	for _, rec := range in.LemmaRecords() {
		for _, l := range rec.Lits {
			if l.Port == 999 {
				t.Fatal("exported record aliases instance state")
			}
		}
		for _, n := range rec.Src {
			if n == 999 {
				t.Fatal("exported source experiment aliases instance state")
			}
		}
	}
}

// validLemmaRecord is a well-formed record for the toy instance.
var validLemmaRecord = LemmaRecord{
	Lits: []LemmaLitRecord{{Uop: 0, Port: 1}},
	Src:  portmodel.Exp("iA"),
}

// corruptLemmaCases are damaged checkpoint lemma sets for the toy
// instance, each with a fragment its validation error must mention.
var corruptLemmaCases = []struct {
	name    string
	recs    []LemmaRecord
	wantErr string
}{
	{
		name:    "empty clause",
		recs:    []LemmaRecord{{Src: portmodel.Exp("iA")}},
		wantErr: "empty clause",
	},
	{
		name:    "uop index negative",
		recs:    []LemmaRecord{{Lits: []LemmaLitRecord{{Uop: -1, Port: 0}}, Src: portmodel.Exp("iA")}},
		wantErr: "µop index -1 out of range",
	},
	{
		name:    "uop index too large",
		recs:    []LemmaRecord{{Lits: []LemmaLitRecord{{Uop: 5, Port: 0}}, Src: portmodel.Exp("iA")}},
		wantErr: "µop index 5 out of range",
	},
	{
		name:    "port negative",
		recs:    []LemmaRecord{{Lits: []LemmaLitRecord{{Uop: 0, Port: -2}}, Src: portmodel.Exp("iA")}},
		wantErr: "port -2 out of range",
	},
	{
		name:    "port too large",
		recs:    []LemmaRecord{{Lits: []LemmaLitRecord{{Uop: 0, Port: 2}}, Src: portmodel.Exp("iA")}},
		wantErr: "port 2 out of range",
	},
	{
		name:    "slack NaN",
		recs:    []LemmaRecord{{Lits: validLemmaRecord.Lits, Src: portmodel.Exp("iA"), Slack: math.NaN()}},
		wantErr: "invalid slack NaN",
	},
	{
		name:    "slack +Inf",
		recs:    []LemmaRecord{{Lits: validLemmaRecord.Lits, Src: portmodel.Exp("iA"), Slack: math.Inf(1)}},
		wantErr: "invalid slack +Inf",
	},
	{
		name:    "slack -Inf",
		recs:    []LemmaRecord{{Lits: validLemmaRecord.Lits, Src: portmodel.Exp("iA"), Slack: math.Inf(-1)}},
		wantErr: "invalid slack -Inf",
	},
	{
		name:    "slack negative",
		recs:    []LemmaRecord{{Lits: validLemmaRecord.Lits, Src: portmodel.Exp("iA"), Slack: -0.5}},
		wantErr: "invalid slack -0.5",
	},
	{
		name:    "slack -0.25",
		recs:    []LemmaRecord{{Lits: []LemmaLitRecord{{Uop: 0, Port: 0}}, Src: portmodel.Exp("iA"), Slack: -0.25}},
		wantErr: "invalid slack -0.25",
	},
	{
		name:    "bad record after valid one",
		recs:    []LemmaRecord{validLemmaRecord, {Lits: []LemmaLitRecord{{Uop: 0, Port: 99}}, Src: portmodel.Exp("iA")}},
		wantErr: "lemma 1",
	},
}

// TestRestoreLemmasRejectsCorrupt: out-of-range indices, empty
// clauses or unusable slack from a damaged checkpoint must fail
// validation instead of corrupting (or crashing) the next solve, and
// must leave the lemma store as it was: empty on a fresh instance,
// untouched on one that already learned lemmas.
func TestRestoreLemmasRejectsCorrupt(t *testing.T) {
	for _, tc := range corruptLemmaCases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("RestoreLemmas panicked on corrupt input: %v", r)
				}
			}()
			in := toyInstance()
			err := in.RestoreLemmas(tc.recs)
			if err == nil {
				t.Fatal("corrupt lemma records accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if in.LemmaCount() != 0 {
				t.Errorf("failed restore left %d lemmas behind", in.LemmaCount())
			}

			learned, _ := learnedToyInstance(t)
			want := learned.LemmaRecords()
			if err := learned.RestoreLemmas(tc.recs); err == nil {
				t.Fatal("corrupt lemma records accepted over learned lemmas")
			}
			if got := learned.LemmaRecords(); !reflect.DeepEqual(got, want) {
				t.Errorf("failed restore changed the learned lemmas:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// sameLemmaRecords compares record lists, treating a nil and an empty
// source experiment as equal (both decode from a checkpoint as "no
// instructions").
func sameLemmaRecords(a, b []LemmaRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Lits, b[i].Lits) || a[i].Slack != b[i].Slack || len(a[i].Src) != len(b[i].Src) {
			return false
		}
		for k, n := range a[i].Src {
			if m, ok := b[i].Src[k]; !ok || m != n {
				return false
			}
		}
	}
	return true
}

// FuzzRestoreLemmas feeds arbitrary checkpoint bytes through the lemma
// decoder. Restoring must never panic; an accepted record set must
// export back unchanged and leave the instance solvable (a mapping or
// an error, never a crash).
func FuzzRestoreLemmas(f *testing.F) {
	seeds := [][]LemmaRecord{{validLemmaRecord}}
	for _, tc := range corruptLemmaCases {
		seeds = append(seeds, tc.recs)
	}
	for _, recs := range seeds {
		data, err := json.Marshal(recs)
		if err != nil {
			continue // NaN and ±Inf slack have no JSON form
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []LemmaRecord
		if err := json.Unmarshal(data, &recs); err != nil {
			return
		}
		in := toyInstance()
		if err := in.RestoreLemmas(recs); err != nil {
			return
		}
		if got := in.LemmaRecords(); !sameLemmaRecords(got, recs) {
			t.Fatalf("restored records do not round-trip:\n got %+v\nwant %+v", got, recs)
		}
		if m, err := in.FindMapping(toyExps()); err == nil && m == nil {
			t.Fatal("FindMapping returned neither a mapping nor an error")
		}
	})
}
