package persist

import (
	"fmt"
	"path/filepath"
)

// LoadStateErr recovers dir the way Open does and returns the first
// file Open would discard as stale, wrapped with the file's name: the
// external document tests read the store's snapshot through it. It
// returns nil when every file is trusted.
func LoadStateErr(dir, fingerprint string) error {
	st, err := loadState(dir, fingerprint)
	if err != nil {
		return err
	}
	if len(st.stale) > 0 {
		return fmt.Errorf("%s: %w", filepath.Base(st.stale[0].path), st.stale[0].err)
	}
	return nil
}
