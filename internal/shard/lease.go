package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"zenport/internal/persist"
)

// Lease file layout inside a slice directory:
//
//	lease.json        — current {owner, epoch, beat}, written atomically
//	lease.lock        — short-lived flock serializing lease mutations
//	owner-eNNNN.lock  — flock held by epoch NNNN's owner for its tenure
//
// Ownership of a slice is the lease.json epoch; the per-epoch owner
// lock exists to make *death* detectable instantly: the kernel drops
// flocks the moment the holding process exits (SIGKILL included), so a
// probe of the current epoch's owner lock distinguishes a dead owner
// (probe succeeds → take over now) from a live one (probe fails →
// watch the heartbeat). A live-but-hung owner keeps its lock and
// freezes its beat, which is what the staleness threshold and Steal
// are for. Takeover bumps the epoch, and the persist layer keys all
// journal/snapshot files by epoch, so a displaced owner that wakes up
// can neither write into the new owner's files nor pass a Beat check
// again.
const (
	leaseFile = "lease.json"
	leaseLock = "lease.lock"
)

// ErrLeaseLost reports that the caller's lease epoch is no longer the
// slice's current epoch: another shard declared this one dead or hung
// and took the slice over. The holder must stop working on the slice;
// everything it wrote remains confined to its own epoch's files.
var ErrLeaseLost = errors.New("shard: lease lost to another owner")

// Lease is the published ownership state of one slice.
type Lease struct {
	// Owner identifies the current owner (informational; ownership is
	// the epoch).
	Owner string `json:"owner"`
	// Epoch is the writer epoch of the current owner. Every takeover
	// increments it past anything ever persisted in the directory.
	Epoch uint64 `json:"epoch"`
	// Beat is the owner's monotonic heartbeat counter. An owner that
	// stops advancing it for the staleness threshold is presumed hung.
	Beat uint64 `json:"beat"`
}

// ownerLockName is the tenure lock file of one epoch's owner.
func ownerLockName(epoch uint64) string {
	return fmt.Sprintf("owner-e%04d.lock", epoch)
}

// Handle is a held slice lease: the owner lock of its epoch plus the
// bookkeeping to detect displacement.
type Handle struct {
	dir       string
	owner     string
	epoch     uint64
	ownerLock *persist.FileLock
	lost      atomic.Bool
}

// Epoch returns the lease's writer epoch, the epoch to open the slice
// store under.
func (h *Handle) Epoch() uint64 { return h.epoch }

// Lost reports whether a Beat discovered the lease was stolen.
func (h *Handle) Lost() bool { return h.lost.Load() }

// Release drops the owner lock. The lease file keeps its epoch: a
// later TryAcquire simply probes, finds the epoch's owner dead, and
// takes over with the next epoch.
func (h *Handle) Release() error {
	return h.ownerLock.Unlock()
}

// Beat publishes the owner's progress counter and verifies the lease
// is still ours. The counter must be monotonic for the holder (the
// engine's Progress is); Beat keeps the published value monotonic
// regardless. It returns ErrLeaseLost — and latches Lost — when the
// slice was stolen.
func (h *Handle) Beat(progress uint64) error {
	if h.lost.Load() {
		return ErrLeaseLost
	}
	lk, err := persist.LockFile(filepath.Join(h.dir, leaseLock))
	if err != nil {
		return err
	}
	defer lk.Unlock()
	cur, err := readLease(h.dir)
	if err != nil {
		return err
	}
	if cur.Epoch != h.epoch {
		h.lost.Store(true)
		return ErrLeaseLost
	}
	if progress <= cur.Beat {
		return nil
	}
	cur.Beat = progress
	return writeLease(h.dir, cur)
}

// TryAcquire attempts to become the owner of a slice directory without
// waiting. Under the lease mutation lock it probes the current epoch's
// owner lock: a successful probe means the previous owner is dead (or
// the slice was never owned) and the caller takes over immediately
// with a fresh epoch. A failed probe means a live process owns the
// slice; the caller gets (nil, observed lease) and should track the
// observed (epoch, beat) for staleness before resorting to Steal.
func TryAcquire(dir, owner string) (*Handle, Lease, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Lease{}, err
	}
	lk, err := persist.LockFile(filepath.Join(dir, leaseLock))
	if err != nil {
		return nil, Lease{}, err
	}
	defer lk.Unlock()
	cur, err := readLease(dir)
	if err != nil {
		return nil, Lease{}, err
	}
	probe, err := persist.TryLockFile(filepath.Join(dir, ownerLockName(cur.Epoch)))
	if err != nil {
		return nil, Lease{}, err
	}
	if probe == nil {
		return nil, cur, nil
	}
	defer probe.Unlock()
	h, l, err := takeoverLocked(dir, owner, cur)
	return h, l, err
}

// Steal takes a slice over from a live but presumed-hung owner. The
// caller must have observed the lease at `observed` and seen it
// unchanged for the agreed staleness threshold; Steal re-checks under
// the mutation lock and aborts (nil handle, current lease) if the
// owner advanced in the meantime. On success the hung owner is
// displaced: its next Beat returns ErrLeaseLost, and its epoch's files
// are left untouched for recovery to merge.
func Steal(dir, owner string, observed Lease) (*Handle, Lease, error) {
	lk, err := persist.LockFile(filepath.Join(dir, leaseLock))
	if err != nil {
		return nil, Lease{}, err
	}
	defer lk.Unlock()
	cur, err := readLease(dir)
	if err != nil {
		return nil, Lease{}, err
	}
	if cur.Epoch != observed.Epoch || cur.Beat != observed.Beat {
		return nil, cur, nil
	}
	return takeoverLocked(dir, owner, cur)
}

// takeoverLocked installs the caller as the slice's owner under a
// fresh epoch. The new epoch is strictly above both the current lease
// epoch and every epoch that ever persisted a file in the directory
// (persist.MaxEpoch), so even if the lease file was deleted the new
// owner can never collide with old state. Caller holds the mutation
// lock.
func takeoverLocked(dir, owner string, cur Lease) (*Handle, Lease, error) {
	maxE, err := persist.MaxEpoch(dir)
	if err != nil {
		return nil, cur, err
	}
	epoch := cur.Epoch
	if maxE > epoch {
		epoch = maxE
	}
	epoch++
	ol, err := persist.TryLockFile(filepath.Join(dir, ownerLockName(epoch)))
	if err != nil {
		return nil, cur, err
	}
	if ol == nil {
		return nil, cur, fmt.Errorf("shard: fresh epoch %d owner lock already held in %s", epoch, dir)
	}
	next := Lease{Owner: owner, Epoch: epoch}
	if err := writeLease(dir, next); err != nil {
		ol.Unlock()
		return nil, cur, err
	}
	return &Handle{dir: dir, owner: owner, epoch: epoch, ownerLock: ol}, next, nil
}

// Observe reads the current lease without touching ownership. The
// lease file is written atomically, so a lock-free read is safe; a
// missing file reads as the zero lease (epoch 0, never owned).
func Observe(dir string) (Lease, error) {
	return readLease(dir)
}

func readLease(dir string) (Lease, error) {
	data, err := os.ReadFile(filepath.Join(dir, leaseFile))
	if os.IsNotExist(err) {
		return Lease{}, nil
	}
	if err != nil {
		return Lease{}, err
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return Lease{}, fmt.Errorf("shard: corrupt lease in %s: %w", dir, err)
	}
	return l, nil
}

func writeLease(dir string, l Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return persist.AtomicWrite(filepath.Join(dir, leaseFile), data)
}
