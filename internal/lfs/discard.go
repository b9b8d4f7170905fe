package lfs

import (
	"fmt"

	"repro/internal/addr"
)

// Discarding dead segments (DESIGN.md, "Discarding dead segments"): once a
// full checkpoint is durable, every disk log segment the log itself has seen
// die is handed to the device to forget, so simulated media stop holding
// what migration and cleaning left behind.

// Discarder is a Device that can forget blocks nobody will read again
// (dev.Discarder, in the block address space). Discard takes no virtual
// time; a block it forgets reads as zeroes, or as before where the device
// keeps it.
type Discarder interface {
	Discard(b addr.BlockNo, n int)
}

// segLive is the log's own count of what is live in one disk segment.
type segLive struct {
	n         int32 // blocks and inode slots the log wrote here and has not retired
	kept      bool  // n has been kept since the log last took the segment clean (or since Format)
	discarded bool  // holds nothing of the log: forgotten since the log last wrote here, or never written
}

// countLive adds d to the live count of the disk segment holding a, if this
// instance keeps it: the addresses accountNew and accountOld are given, one
// block or inode slot each.
func (fs *FS) countLive(a addr.BlockNo, d int32) {
	seg := fs.amap.SegOf(a)
	if !fs.amap.IsDiskSeg(seg) || !fs.live[seg].kept {
		return
	}
	l := &fs.live[seg]
	if l.n += d; l.n < 0 {
		panic(fmt.Sprintf("lfs: segment %d: more blocks retired than written (live count %d)", seg, l.n))
	}
}

// discardDeadLocked discards every disk segment that holds no live block by
// the log's count and is not the log head, a cache line or retired. It runs
// only once a full checkpoint is durable: then no durable pointer names a
// block the count has retired, so roll-forward and every later mount see the
// segment as the log does.
func (fs *FS) discardDeadLocked() {
	dc, ok := fs.dev.(Discarder)
	if !ok {
		return
	}
	for s := range fs.live {
		l := &fs.live[s]
		if !l.kept || l.n != 0 || l.discarded || fs.seguse[s].Flags&(SegActive|SegCached|SegNoStore) != 0 {
			continue
		}
		dc.Discard(fs.amap.BlockOf(addr.SegNo(s), 0), fs.amap.SegBlocks())
		l.discarded = true
	}
}

// Discarded reports whether disk segment s has been discarded since the log
// last wrote into it.
func (fs *FS) Discarded(s addr.SegNo) bool { return fs.live[s].discarded }
