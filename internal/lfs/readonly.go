package lfs

import (
	"repro/internal/addr"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// maxRestarts is how often one read-only operation gives the lock up to
// wait for tertiary storage. Its next wait happens holding the lock, which
// always completes the read, however fast lines are evicted.
const maxRestarts = 3

// readOp is what the read-only operation holding the lock carries from one
// attempt of its body to the next, so that each side effect happens once
// per operation. The zero value is the state of every other operation.
type readOp struct {
	restartable bool // a device read that would wait unwinds with notResident
	// fault (n > 0) is the read the attempt before this one unwound at, which
	// Fetch has since served. Until the attempt issues it again it is going
	// over ground the earlier one covered: buffer-cache lookups on the way
	// were counted then and are not counted again. If it never issues it
	// (another operation filled the buffers meanwhile) the rest of its
	// lookups go uncounted: an undercount, never a double count.
	fault          notResident
	accessed       bool // ReadAt has set Atime and called OnAccess
	reads, charged int  // readAtLocked calls this attempt finished; user copies charged so far
}

// notResident is the result of a device read that a restartable operation
// declined to wait for; the read path returns it unwrapped.
type notResident struct {
	at addr.BlockNo
	n  int
}

func (notResident) Error() string { return "lfs: blocks not disk-resident" }

// acquire takes the file system lock for an operation of the file API, the
// ones a front-end request runs. Time queued behind another operation is an
// fs-lock stage of the request's trace, noting which process held the lock
// when it queued; no wait, no stage.
func (fs *FS) acquire(p *sim.Proc) {
	tr := reqtrace.From(p)
	if tr == nil || !fs.lock.Busy() {
		fs.lock.Acquire(p)
		return
	}
	st := tr.StageStart(reqtrace.KindFSLock, p.Now(), "held by "+fs.lock.Owner())
	fs.lock.Acquire(p)
	tr.StageEnd(st, p.Now())
}

// LockedBy reports whether p is inside an operation that holds the file
// system lock: what it waits for then, every other operation waits for too.
func (fs *FS) LockedBy(p *sim.Proc) bool { return fs.lock.HeldBy(p) }

// readOnly runs body, which must not modify the file system, under the lock
// (DESIGN.md, "What the file-system lock covers"). A device read that would
// wait for tertiary storage makes body return notResident; readOnly waits
// for the fetch with the lock released and runs body again from the top, so
// nothing it looked at (inodes, buffers, the cluster request) is used across
// the unlocked window or needs revalidating.
func (fs *FS) readOnly(p *sim.Proc, body func() error) error {
	var op readOp
	for restarts := 0; ; restarts++ {
		fs.acquire(p)
		op.restartable = fs.fetcher != nil && restarts < maxRestarts
		op.reads = 0
		fs.op = op
		err := body()
		op, fs.op = fs.op, readOp{}
		fs.unlock(p)
		nr, faulted := err.(notResident)
		if !faulted {
			return err
		}
		if err := fs.fetcher.Fetch(p, nr.at, nr.n); err != nil {
			return err
		}
		op.fault = nr
	}
}
