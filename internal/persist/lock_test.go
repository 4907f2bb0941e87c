package persist

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// lockHolderArg, followed by a directory, makes the test binary a
// child that holds that directory's lock until it is killed or its
// stdin closes (see TestLockDirExclusive).
const lockHolderArg = "lock-holder"

// TestLockDirExclusive pins the single-writer lock of a cache
// directory: a second LockDir fails naming the lock file, Unlock frees
// the directory and is safe to repeat, and the kernel releases the
// lock of a holder that dies by SIGKILL.
func TestLockDirExclusive(t *testing.T) {
	if !flockSupported {
		t.Skip("advisory file locks do not exclude other processes on this platform")
	}
	if args := flag.Args(); len(args) == 2 && args[0] == lockHolderArg {
		holdLock(args[1])
	}
	dir := t.TempDir()
	l, err := LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LockDir(dir); err == nil || !strings.Contains(err.Error(), lockFileName) {
		t.Fatalf("second LockDir: err = %v, want an error naming %s", err, lockFileName)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatalf("second Unlock: %v, want nil", err)
	}
	l, err = LockDir(dir)
	if err != nil {
		t.Fatalf("LockDir after Unlock: %v", err)
	}
	l.Unlock()

	child := exec.Command(os.Args[0], "-test.run=^TestLockDirExclusive$", lockHolderArg, dir)
	stdin, err := child.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Wait()
	defer child.Process.Kill()
	if line, err := bufio.NewReader(stdout).ReadString('\n'); line != "locked\n" {
		t.Fatalf("lock holder said %q (%v), want \"locked\"", line, err)
	}
	if _, err := LockDir(dir); err == nil {
		t.Fatal("LockDir took a directory a live process holds")
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	l, err = LockDir(dir)
	if err != nil {
		t.Fatalf("LockDir after the holder was killed: %v", err)
	}
	l.Unlock()
}

// holdLock is the child side of TestLockDirExclusive: it takes dir's
// lock, reports it on stdout, and holds it until stdin closes, so an
// orphaned child exits with its parent.
func holdLock(dir string) {
	if _, err := LockDir(dir); err != nil {
		fmt.Println(err)
		os.Exit(1)
	}
	fmt.Println("locked")
	io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}
