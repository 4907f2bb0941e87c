package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// A sealed document is the on-disk form of every persisted artifact
// that is rewritten whole rather than appended to: the store's
// snapshot and the pipeline checkpoint. Its first line is a JSON
// Header — format version, configuration fingerprint, CRC-32C of the
// payload — and the rest of the file is the payload JSON. Documents
// are written atomically, so a reader sees the old or the new file,
// never a torn mix; the checksum catches what atomicity cannot (bit
// rot, a truncated or hand-edited copy).

// WriteDocument encodes v and writes it to path as a sealed document,
// atomically.
func WriteDocument(path, fingerprint string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return atomicWrite(path, seal(fingerprint, payload), payload)
}

// seal renders the header line that precedes payload in a document.
// Marshalling a Header cannot fail.
func seal(fingerprint string, payload []byte) []byte {
	hdr, _ := json.Marshal(Header{Version: formatVersion, Fingerprint: fingerprint, CRC: crc32Sum(payload)})
	return append(hdr, '\n')
}

// ReadDocument decodes the sealed document at path into v. It returns
// (false, nil) when the file does not exist, and an error wrapping
// ErrCorrupt or ErrFingerprintMismatch when it exists but cannot be
// trusted.
func ReadDocument(path, fingerprint string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		err = decodeDocument(data, fingerprint, v)
	}
	return err == nil, err
}

// decodeDocument checks a document's header — version, fingerprint,
// payload checksum — and only then decodes the payload into v. It is
// the one validation every document passes.
func decodeDocument(data []byte, fingerprint string, v any) error {
	line, payload, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if err := h.check(fingerprint); err != nil {
		return err
	}
	if crc32Sum(payload) != h.CRC {
		return fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	return nil
}

// atomicWrite writes the concatenated chunks to path via a temp file
// in the same directory: write, fsync, rename — so readers observe
// either the old or the new content, never a torn mix. Every sealed
// document is written through it.
func atomicWrite(path string, chunks ...[]byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
