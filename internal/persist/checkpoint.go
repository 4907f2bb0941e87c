package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// Checkpointer saves and restores pipeline stage outcomes inside a
// cache directory. Each checkpoint is one sealed document (see
// WriteDocument), so a truncated, bit-flipped, or stale checkpoint is
// detected with an error — never deserialized into a half-restored
// pipeline.
type Checkpointer struct {
	dir         string
	fingerprint string
}

// checkpointName restricts checkpoint names to a safe filename
// alphabet; names are caller-chosen identifiers like "stage3" or
// "stage4-run2", not user input, but the guard keeps path traversal
// structurally impossible.
var checkpointName = regexp.MustCompile(`^[a-zA-Z0-9._-]+$`)

// NewCheckpointer returns a checkpointer rooted at dir/checkpoints.
func NewCheckpointer(dir, fingerprint string) (*Checkpointer, error) {
	if fingerprint == "" {
		return nil, fmt.Errorf("persist: empty fingerprint")
	}
	cdir := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return nil, err
	}
	return &Checkpointer{dir: cdir, fingerprint: fingerprint}, nil
}

// path returns the file path of a named checkpoint.
func (c *Checkpointer) path(name string) (string, error) {
	if !checkpointName.MatchString(name) {
		return "", fmt.Errorf("persist: invalid checkpoint name %q", name)
	}
	return filepath.Join(c.dir, name+".ckpt.json"), nil
}

// Save writes the named checkpoint atomically.
func (c *Checkpointer) Save(name string, payload any) error {
	p, err := c.path(name)
	if err != nil {
		return err
	}
	if err := WriteDocument(p, c.fingerprint, payload); err != nil {
		return fmt.Errorf("persist: checkpoint %s: %w", name, err)
	}
	return nil
}

// Load reads the named checkpoint into out. It returns (false, nil)
// when the checkpoint does not exist, and an error — wrapping
// ErrCorrupt or ErrFingerprintMismatch — when it exists but cannot be
// trusted.
func (c *Checkpointer) Load(name string, out any) (bool, error) {
	p, err := c.path(name)
	if err != nil {
		return false, err
	}
	ok, err := ReadDocument(p, c.fingerprint, out)
	if err != nil {
		return false, fmt.Errorf("checkpoint %s: %w", name, err)
	}
	return ok, nil
}

// Clear removes all saved checkpoints (used when starting a fresh,
// non-resumed run so stale stage files cannot shadow the new run).
func (c *Checkpointer) Clear() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if filepath.Ext(e.Name()) == ".json" {
			if err := os.Remove(filepath.Join(c.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
