//go:build !unix

package persist

import "os"

// flockSupported reports whether advisory file locks actually exclude
// other processes on this platform. Without flock the lock files are
// still created — so the code paths stay identical — but exclusion is
// not enforced.
const flockSupported = false

func flockTry(f *os.File) (bool, error) { return true, nil }
