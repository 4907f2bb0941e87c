package smt

import (
	"fmt"
	"math"

	"zenport/internal/portmodel"
)

// LemmaLitRecord is the wire form of one lemma literal.
type LemmaLitRecord struct {
	Uop  int  `json:"uop"`
	Port int  `json:"port"`
	Neg  bool `json:"neg,omitempty"`
}

// LemmaRecord is the wire form of one learned theory lemma: the
// clause literals plus the experiment the lemma was derived from (the
// lemma is sound only while that experiment stays in the measured
// set).
type LemmaRecord struct {
	Lits []LemmaLitRecord     `json:"lits"`
	Src  portmodel.Experiment `json:"src"`
	// Slack is the source experiment's tolerance slack at learning
	// time. A lemma restored into a run whose experiment carries less
	// slack stays sound (the tighter bound excludes at least as much);
	// more slack would invalidate it, which the supervision layer
	// prevents by dropping an experiment's lemmas on every relaxation.
	Slack float64 `json:"slack,omitempty"`
}

// LemmaRecords exports the instance's accumulated theory lemmas for
// checkpointing. The order is the learning order, which is itself
// deterministic.
func (in *Instance) LemmaRecords() []LemmaRecord {
	out := make([]LemmaRecord, len(in.lemmas))
	for i, lem := range in.lemmas {
		lits := make([]LemmaLitRecord, len(lem.lits))
		for j, l := range lem.lits {
			lits[j] = LemmaLitRecord{Uop: int(l.uop), Port: int(l.port), Neg: l.neg}
		}
		out[i] = LemmaRecord{Lits: lits, Src: lem.src.Clone(), Slack: lem.slack}
	}
	return out
}

// lemmaFromRecord validates one record against the instance shape and
// converts it. A record with a µop or port index out of range would
// corrupt the SAT encoding (or panic) on the next solve, so importing
// from an untrusted checkpoint must fail with an error instead.
func (in *Instance) lemmaFromRecord(i int, rec LemmaRecord) (lemma, error) {
	if len(rec.Lits) == 0 {
		return lemma{}, fmt.Errorf("smt: lemma %d: empty clause", i)
	}
	if math.IsNaN(rec.Slack) || math.IsInf(rec.Slack, 0) || rec.Slack < 0 {
		return lemma{}, fmt.Errorf("smt: lemma %d: invalid slack %v", i, rec.Slack)
	}
	lits := make([]lemmaLit, len(rec.Lits))
	for j, l := range rec.Lits {
		if l.Uop < 0 || l.Uop >= len(in.Uops) {
			return lemma{}, fmt.Errorf("smt: lemma %d: µop index %d out of range [0,%d)", i, l.Uop, len(in.Uops))
		}
		if l.Port < 0 || l.Port >= in.NumPorts {
			return lemma{}, fmt.Errorf("smt: lemma %d: port %d out of range [0,%d)", i, l.Port, in.NumPorts)
		}
		lits[j] = lemmaLit{uop: int32(l.Uop), port: int32(l.Port), neg: l.Neg}
	}
	return lemma{lits: lits, src: rec.Src.Clone(), slack: rec.Slack}, nil
}

// RestoreLemmas replaces the instance's lemmas with the checkpointed
// records, after validating every literal against the instance shape.
func (in *Instance) RestoreLemmas(recs []LemmaRecord) error {
	restored := make([]lemma, 0, len(recs))
	for i, rec := range recs {
		lem, err := in.lemmaFromRecord(i, rec)
		if err != nil {
			return err
		}
		restored = append(restored, lem)
	}
	in.invalidateFrom(0)
	in.lemmas = restored
	return nil
}
