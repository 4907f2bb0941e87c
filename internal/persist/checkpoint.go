package persist

import (
	"fmt"
	"os"
	"path/filepath"
)

// Checkpointer saves and restores the pipeline's checkpoint inside a
// cache directory: one sealed document (see WriteDocument), rewritten
// whole after every step the pipeline wants to survive a kill, so a
// truncated, bit-flipped, or stale checkpoint is detected with an
// error — never deserialized into a half-restored pipeline.
type Checkpointer struct {
	dir         string
	fingerprint string
}

// checkpointFile is the checkpoint document's name inside
// dir/checkpoints.
const checkpointFile = "pipeline.ckpt.json"

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

// Save replaces the checkpoint with payload, atomically.
func (c *Checkpointer) Save(payload any) error {
	if err := WriteDocument(filepath.Join(c.dir, checkpointFile), c.fingerprint, payload); err != nil {
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	return nil
}

// Load reads the checkpoint into out. It returns (false, nil) when
// there is no checkpoint, and an error — wrapping ErrCorrupt or
// ErrFingerprintMismatch — when it exists but cannot be trusted.
func (c *Checkpointer) Load(out any) (bool, error) {
	ok, err := ReadDocument(filepath.Join(c.dir, checkpointFile), c.fingerprint, out)
	if err != nil {
		return false, fmt.Errorf("checkpoint: %w", err)
	}
	return ok, nil
}

// Clear removes every *.json file of the checkpoint directory: the
// checkpoint, and the per-stage files older builds wrote (used when
// starting a fresh, non-resumed run so nothing stale can shadow it).
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
