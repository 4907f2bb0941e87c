package persist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/persist"
)

const docFP = "test:v1 seed=1 noise=0.001"

// document is one kind of sealed document: where it lives in a
// directory, how its producer writes a valid one, and how its
// production reader loads it back (nil error means accepted).
type document struct {
	file  string
	write func(t *testing.T, dir string)
	read  func(dir string) error
	// extra holds the corrupt-input rows only this kind has.
	extra []corruptRow
}

// corruptRow damages a valid document: it gets the file's header line
// and payload and returns the bytes to write in its place.
type corruptRow struct {
	name    string
	mutate  func(t *testing.T, header, payload []byte) []byte
	wantErr error // nil: the document must still be accepted
}

// reseal renders payload under the document's header with a freshly
// computed checksum, after edit (if any) changes the header fields.
func reseal(t *testing.T, header, payload []byte, edit func(h map[string]any)) []byte {
	t.Helper()
	var h map[string]any
	if err := json.Unmarshal(header, &h); err != nil {
		t.Fatal(err)
	}
	h["crc"] = crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	if edit != nil {
		edit(h)
	}
	line, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(line, '\n'), payload...)
}

// corruptRows is the table every document kind runs: damage the
// checksum catches, headers of another version or configuration, and
// checksum-valid payloads that do not decode. All must be rejected
// with an error wrapping ErrCorrupt or ErrFingerprintMismatch.
var corruptRows = []corruptRow{
	{
		name:   "valid",
		mutate: func(t *testing.T, header, payload []byte) []byte { return append(append(header, '\n'), payload...) },
	},
	{
		name: "truncated body",
		mutate: func(t *testing.T, header, payload []byte) []byte {
			return append(append(header, '\n'), payload[:len(payload)/2]...)
		},
		wantErr: persist.ErrCorrupt,
	},
	{
		name: "bit flip in body",
		mutate: func(t *testing.T, header, payload []byte) []byte {
			payload[len(payload)/2] ^= 0x01
			return append(append(header, '\n'), payload...)
		},
		wantErr: persist.ErrCorrupt,
	},
	{
		name:    "missing checksum line",
		mutate:  func(t *testing.T, header, payload []byte) []byte { return payload },
		wantErr: persist.ErrCorrupt,
	},
	{
		name:    "not JSON",
		mutate:  func(t *testing.T, header, payload []byte) []byte { return []byte("}{\n}{") },
		wantErr: persist.ErrCorrupt,
	},
	{
		name: "checksum-valid garbage JSON",
		mutate: func(t *testing.T, header, payload []byte) []byte {
			return reseal(t, header, []byte("not json at all"), nil)
		},
		wantErr: persist.ErrCorrupt,
	},
	{
		name: "payload type mismatch",
		mutate: func(t *testing.T, header, payload []byte) []byte {
			return reseal(t, header, []byte(`"a string, not an object"`), nil)
		},
		wantErr: persist.ErrCorrupt,
	},
	{
		name: "wrong version",
		mutate: func(t *testing.T, header, payload []byte) []byte {
			return reseal(t, header, payload, func(h map[string]any) { h["version"] = 7 })
		},
		wantErr: persist.ErrCorrupt,
	},
	{
		name: "wrong fingerprint",
		mutate: func(t *testing.T, header, payload []byte) []byte {
			return reseal(t, header, payload, func(h map[string]any) { h["fingerprint"] = "other" })
		},
		wantErr: persist.ErrFingerprintMismatch,
	},
}

// testCorruptDocument runs corruptRows, then the kind's own rows,
// over one document kind.
func testCorruptDocument(t *testing.T, doc document) {
	for _, row := range slices.Concat(corruptRows, doc.extra) {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			doc.write(t, dir)
			path := filepath.Join(dir, doc.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			header, payload, ok := bytes.Cut(data, []byte{'\n'})
			if !ok {
				t.Fatalf("%s has no header line", doc.file)
			}
			if err := os.WriteFile(path, row.mutate(t, header, payload), 0o644); err != nil {
				t.Fatal(err)
			}
			err = doc.read(dir)
			if row.wantErr == nil {
				if err != nil {
					t.Fatalf("valid %s rejected: %v", doc.file, err)
				}
				return
			}
			if !errors.Is(err, row.wantErr) {
				t.Fatalf("err = %v, want %v", err, row.wantErr)
			}
		})
	}
}

func TestSnapshotCorruptInputs(t *testing.T) {
	testCorruptDocument(t, document{
		file: "snapshot.json",
		write: func(t *testing.T, dir string) {
			s, err := persist.Open(dir, docFP)
			if err != nil {
				t.Fatal(err)
			}
			s.Record(0, "1*add", engine.Result{InvThroughput: 0.25, Runs: 11})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		},
		read: func(dir string) error { return persist.LoadStateErr(dir, docFP) },
		extra: []corruptRow{{
			name: "record with empty key",
			mutate: func(t *testing.T, header, payload []byte) []byte {
				return reseal(t, header, []byte(`[{"gen":0,"key":""}]`), nil)
			},
			wantErr: persist.ErrCorrupt,
		}},
	})
}

func TestCheckpointCorruptInputs(t *testing.T) {
	testCorruptDocument(t, document{
		file: filepath.Join("checkpoints", "pipeline.ckpt.json"),
		write: func(t *testing.T, dir string) {
			ck, err := persist.NewCheckpointer(dir, docFP)
			if err == nil {
				err = ck.Save(map[string]int{"add": 1})
			}
			if err != nil {
				t.Fatal(err)
			}
		},
		read: func(dir string) error {
			ck, err := persist.NewCheckpointer(dir, docFP)
			if err != nil {
				return err
			}
			var out map[string]int
			ok, err := ck.Load(&out)
			if err == nil && !ok {
				err = errors.New("checkpoint not found")
			}
			return err
		},
	})
}
