// Package persist is the crash-safe on-disk layer under the batch
// measurement engine and the inference pipeline. The paper's case
// study spends 12–20 hours of wall clock on hardware microbenchmarks
// (§4.1, §6), and measurement volume dominates the cost of every
// port-mapping inference approach; a crash or Ctrl-C near the end of
// such a run must not throw that work away.
//
// Everything it writes takes one of two forms:
//
//   - an append-only result journal with length-prefixed, checksummed
//     records (this file). Torn or corrupt tail records — the
//     signature of a crash mid-write — are detected by CRC and
//     truncated, never trusted;
//   - a sealed document (document.go): a one-line header carrying
//     version, fingerprint and payload checksum, then the payload
//     JSON, written atomically (write-temp, fsync, rename).
//
// On top of them, a Store (store.go) owns a cache directory: it loads
// the snapshot document plus journal on startup to pre-warm the
// engine's result cache, records new results as they are executed,
// and compacts the journal into the snapshot at batch boundaries. A
// Checkpointer (checkpoint.go) keeps the pipeline's progress in one
// document so `-resume` restarts an interrupted run from the last
// completed step.
//
// All persisted state is keyed by a caller-supplied fingerprint of
// the processor/measurement configuration (seed, noise model, reps,
// iterations, ε). State written under a different fingerprint is
// stale by definition and is invalidated rather than reused.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"zenport/internal/engine"
)

// formatVersion is the version of the journal and document formats,
// bumped on incompatible changes to either. State of another version
// is stale: discarded on open, never parsed.
const formatVersion = 2

// castagnoli is the CRC-32C table of journal frame and document
// payload checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32Sum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ErrFingerprintMismatch reports persisted state written under a
// different processor/measurement configuration than the current one.
var ErrFingerprintMismatch = errors.New("persist: fingerprint mismatch (stale state from a different configuration)")

// ErrCorrupt reports persisted state that is structurally damaged
// beyond the recoverable torn-tail case (e.g. a corrupt journal
// header or a checkpoint whose checksum does not match).
var ErrCorrupt = errors.New("persist: corrupt state")

// Header identifies a journal or document: format version plus the
// configuration fingerprint its contents were measured under, and for
// a document the CRC-32C of its payload.
type Header struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	CRC         uint32 `json:"crc,omitempty"`
}

// check rejects a header of another format version (ErrCorrupt) or
// configuration (ErrFingerprintMismatch).
func (h Header) check(fingerprint string) error {
	if h.Version != formatVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrCorrupt, h.Version, formatVersion)
	}
	if h.Fingerprint != fingerprint {
		return fmt.Errorf("%w: written under %q, current configuration is %q",
			ErrFingerprintMismatch, h.Fingerprint, fingerprint)
	}
	return nil
}

// Record is one persisted measurement: the engine's canonical
// experiment key, the cache generation it was executed in (stage-4
// characterization runs re-measure under fresh noise, one generation
// per run), and the processed result.
type Record struct {
	Gen    uint64        `json:"gen"`
	Key    string        `json:"key"`
	Result engine.Result `json:"result"`
}

// frame layout: 4-byte little-endian payload length, 4-byte CRC-32C
// of the payload, payload bytes. The first frame of a journal is the
// Header; all subsequent frames are Records.
const frameOverhead = 8

// maxFramePayload bounds a single record; anything larger is treated
// as corruption rather than an allocation request.
const maxFramePayload = 16 << 20

// appendFrame writes one length-prefixed checksummed frame to w.
func appendFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("persist: frame payload of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32Sum(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame from data starting at off. It returns the
// payload and the offset past the frame, or ok=false when the bytes
// from off onward do not form a complete, checksum-valid frame (a
// torn or corrupt tail).
func readFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameOverhead > len(data) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxFramePayload || off+frameOverhead+n > len(data) {
		return nil, off, false
	}
	payload = data[off+frameOverhead : off+frameOverhead+n]
	if crc32Sum(payload) != sum {
		return nil, off, false
	}
	return payload, off + frameOverhead + n, true
}

// encodeHeaderFrame renders the journal header frame.
func encodeHeaderFrame(fingerprint string) ([]byte, error) {
	payload, err := json.Marshal(Header{Version: formatVersion, Fingerprint: fingerprint})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := appendFrame(&buf, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RecoveredJournal is the result of reading a journal file back.
type RecoveredJournal struct {
	Header  Header
	Records []Record
	// TornBytes is the number of trailing bytes discarded because
	// they did not form complete checksum-valid frames (a crash
	// mid-append). Zero for a cleanly closed journal.
	TornBytes int
	// GoodSize is the byte offset of the last valid frame's end; the
	// journal should be truncated to this size before appending.
	GoodSize int64
}

// ReadJournal reads and validates a journal file. A missing file
// yields an empty recovery with a zero header and no error. Torn or
// corrupt tail records are dropped (reported via TornBytes), never
// trusted; a journal whose *header* is unreadable or of the wrong
// version is reported as ErrCorrupt, and one written under a
// different fingerprint as ErrFingerprintMismatch — in both cases the
// caller is expected to discard the file and start fresh.
func ReadJournal(path, fingerprint string) (*RecoveredJournal, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &RecoveredJournal{}, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeJournal(data, fingerprint)
}

// decodeJournal recovers a journal from its bytes (see ReadJournal).
func decodeJournal(data []byte, fingerprint string) (*RecoveredJournal, error) {
	rec := &RecoveredJournal{}
	payload, off, ok := readFrame(data, 0)
	if !ok {
		return nil, fmt.Errorf("%w: journal header unreadable", ErrCorrupt)
	}
	if err := json.Unmarshal(payload, &rec.Header); err != nil {
		return nil, fmt.Errorf("%w: journal header: %v", ErrCorrupt, err)
	}
	if err := rec.Header.check(fingerprint); err != nil {
		return nil, err
	}
	rec.GoodSize = int64(off)
	for off < len(data) {
		payload, next, ok := readFrame(data, off)
		if !ok {
			break
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil || r.Key == "" {
			// A checksum-valid frame with an unparsable record can
			// only come from a format mismatch; stop trusting the
			// file from here on.
			break
		}
		rec.Records = append(rec.Records, r)
		off = next
		rec.GoodSize = int64(off)
	}
	rec.TornBytes = len(data) - int(rec.GoodSize)
	return rec, nil
}
