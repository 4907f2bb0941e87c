//go:build unix

package persist

import (
	"os"
	"syscall"
)

// flockSupported reports whether advisory file locks actually exclude
// other processes on this platform.
const flockSupported = true

// flockTry acquires an exclusive advisory lock on f without blocking.
// It returns (false, nil) when another process holds the lock.
//
// BSD flock semantics are what LockDir needs: the lock is attached to
// the open file description, so the kernel releases it the instant
// the holding process dies — including SIGKILL, which runs no handlers
// and flushes nothing.
func flockTry(f *os.File) (bool, error) {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}
