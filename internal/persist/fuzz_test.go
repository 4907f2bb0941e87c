package persist

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes to the journal decoder under
// ReadJournal. It must never panic; an error must mark the journal
// stale (ErrCorrupt or ErrFingerprintMismatch), and an accepted
// journal yields only keyed records, with its valid prefix and torn
// tail accounting for every byte. The corpus under
// testdata/fuzz/FuzzReadJournal holds clean, torn, foreign, old-format
// and damaged journals.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeJournal(data, testFP)
		if err != nil {
			if !isStale(err) {
				t.Fatalf("error %v wraps neither ErrCorrupt nor ErrFingerprintMismatch", err)
			}
			return
		}
		for i, r := range rec.Records {
			if r.Key == "" {
				t.Fatalf("record %d has an empty key", i)
			}
		}
		if rec.GoodSize+int64(rec.TornBytes) != int64(len(data)) {
			t.Fatalf("GoodSize %d + TornBytes %d != %d bytes", rec.GoodSize, rec.TornBytes, len(data))
		}
	})
}

// FuzzDecodeDocument feeds arbitrary bytes to the sealed-document
// reader. It must never panic; an error must mark the document stale,
// and a payload it accepts must come back unchanged when sealed again.
// The corpus under testdata/fuzz/FuzzDecodeDocument holds valid,
// foreign, old-format and damaged documents.
func FuzzDecodeDocument(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var payload json.RawMessage
		if err := decodeDocument(data, testFP, &payload); err != nil {
			if !isStale(err) {
				t.Fatalf("error %v wraps neither ErrCorrupt nor ErrFingerprintMismatch", err)
			}
			return
		}
		var again json.RawMessage
		if err := decodeDocument(append(seal(testFP, payload), payload...), testFP, &again); err != nil {
			t.Fatalf("resealed payload %q rejected: %v", payload, err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("resealed payload %q decodes as %q", payload, again)
		}
	})
}
