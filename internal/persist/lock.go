package persist

import (
	"fmt"
	"os"
	"path/filepath"
)

// lockFileName is the directory-exclusivity lock inside a cache
// directory. It holds no data; only its flock state matters.
const lockFileName = ".zenport.lock"

// FileLock is an exclusive advisory lock on one file, held for the
// life of the open descriptor. The kernel releases it when the process
// exits — by any means, including SIGKILL — so a dead holder never
// leaves a stale lock behind.
type FileLock struct {
	f *os.File
}

// Unlock releases the lock by closing the file. Safe to call twice.
func (l *FileLock) Unlock() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// tryLockFile acquires an exclusive lock on path without blocking,
// creating the file if needed. It returns (nil, nil) when another
// process holds the lock.
func tryLockFile(path string) (*FileLock, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	ok, err := flockTry(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if !ok {
		f.Close()
		return nil, nil
	}
	return &FileLock{f: f}, nil
}

// LockDir takes the exclusive-use lock of a cache directory, creating
// the directory if needed. Two processes pointed at the same cache
// directory would interleave journal appends and race snapshot
// compactions — silent corruption at worst, invalidated caches at
// best — so the second one fails fast here with a clear error instead.
//
// The lock dies with the process (flock semantics), so a crashed run
// never wedges the directory.
func LockDir(dir string) (*FileLock, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := tryLockFile(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, fmt.Errorf("persist: locking cache directory %s: %w", dir, err)
	}
	if l == nil {
		return nil, fmt.Errorf("persist: cache directory %s is in use by another process (it holds %s); "+
			"point this run at its own -cache-dir", dir, lockFileName)
	}
	return l, nil
}
