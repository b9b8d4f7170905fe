package lfs

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// Device is the block-address-space device the file system runs on: a
// plain disk farm for base LFS, or HighLight's block-map driver (which
// dispatches disk, cached, and tertiary addresses).
type Device interface {
	ReadBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error
	// ReadParts reads into parts, each starting at the block after the one
	// before ends (Blk is a block address), what ReadBlocks of their
	// concatenation would, with the same device requests. A one-block part
	// with a Lend slot may come back lent instead of filled (dev.Part).
	ReadParts(p *sim.Proc, parts []dev.Part) error
	WriteBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error
	// KeepBlocks writes what WriteBlocks would, at the same cost, handing buf
	// down kept (dev.Part): the device may keep it by reference, and the
	// caller never changes those bytes again.
	KeepBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error
}

// Flusher is implemented by devices with a volatile write cache. The file
// system issues Flush as a write barrier at its durability points: after
// the log writes of a sync, and twice during a checkpoint (before and
// after the checkpoint header) so the header never lands before the state
// it names.
type Flusher interface {
	Flush(p *sim.Proc) error
}

// Fetcher is implemented by devices whose reads may wait for tertiary
// storage (HighLight's block map; not a plain farm). It lets a read-only
// operation do that waiting with the file system lock released (readOnly).
type Fetcher interface {
	// WouldWait reports, without blocking, whether ReadParts of n blocks
	// at b would wait for tertiary storage.
	WouldWait(b addr.BlockNo, n int) bool
	// Fetch waits for what such a read is missing and reports the error
	// ReadParts would have. The caller then issues the same read again,
	// with ReadAgain: ReadParts for a read Fetch has accounted for.
	Fetch(p *sim.Proc, b addr.BlockNo, n int) error
	ReadAgain(p *sim.Proc, parts []dev.Part) error
	// ReadAhead asks for the tertiary segment holding block b to be
	// brought in before a read needs it. It never blocks, and does nothing
	// for a block that is disk-resident or already on its way.
	ReadAhead(b addr.BlockNo)
}

// flushDevice drains the device's volatile write cache, if it has one.
func (fs *FS) flushDevice(p *sim.Proc) error {
	if f, ok := fs.dev.(Flusher); ok {
		return f.Flush(p)
	}
	return nil
}

// Errors returned by the file system.
var (
	ErrNoSpace    = errors.New("lfs: no clean segments")
	ErrNotFound   = errors.New("lfs: no such file or directory")
	ErrExists     = errors.New("lfs: file exists")
	ErrNotDir     = errors.New("lfs: not a directory")
	ErrIsDir      = errors.New("lfs: is a directory")
	ErrNotEmpty   = errors.New("lfs: directory not empty")
	ErrNoInodes   = errors.New("lfs: out of inodes")
	ErrFileTooBig = errors.New("lfs: file too large")
	ErrBadName    = errors.New("lfs: name longer than 255 bytes or holding NUL")
)

// Options configures a file system at format (and mount) time.
type Options struct {
	// MaxInodes bounds the inode map. Default 4096.
	MaxInodes int
	// BufferBytes is the buffer cache capacity. Default 3.2 MB (the
	// paper's test machine).
	BufferBytes int
	// CacheSegs is the maximum number of disk segments usable to cache
	// tertiary segments (0 for base LFS). A static limit selected at
	// file system creation time (§6.4).
	CacheSegs int
	// CacheSegLo/CacheSegHi restrict cache-line allocation to the disk
	// segment range [CacheSegLo, CacheSegHi) — e.g. to place the staging
	// area on a separate spindle (the Table 6 RZ58/HP7958A configs).
	// Both zero means the whole disk.
	CacheSegLo, CacheSegHi int
	// WriteThreshold is the dirty-byte level that triggers a segment
	// write. Default: one segment's worth.
	WriteThreshold int
	// AssemblyCopyRate models the CPU cost (bytes/second) of copying
	// block buffers into the partial-segment staging area before a log
	// write — the paper's explanation for base LFS's slower sequential
	// writes versus FFS (§7.1). Zero disables the charge.
	AssemblyCopyRate int64
	// UserCopyRate models the CPU cost (bytes/second) of moving read
	// data from the buffer cache to user space. Zero disables it.
	UserCopyRate int64
	// GatherChunkBlocks caps how many blocks the migrator reads per raw
	// device request while gathering blocks for staging. The paper's
	// migrator locates blocks with lfs_bmapv and reads them from the
	// character device individually; 1 reproduces that (and its
	// disk-arm contention). Zero = unlimited contiguous runs.
	GatherChunkBlocks int
}

func (o *Options) fill(segBytes int) {
	if o.MaxInodes <= 0 {
		o.MaxInodes = 4096
	}
	if o.BufferBytes <= 0 {
		o.BufferBytes = 3200 * 1024
	}
	if min := 4 * readCluster * BlockSize; o.BufferBytes < min {
		o.BufferBytes = min // room for clustered reads plus dirty data
	}
	if o.WriteThreshold <= 0 {
		o.WriteThreshold = segBytes
	}
}

// RecoveryInfo records what Mount did to bring the file system back: the
// checkpoint it started from, how far roll-forward got and why it
// stopped, and any namespace repair. hldump -recovery prints it.
type RecoveryInfo struct {
	CheckpointSerial uint64     // serial of the checkpoint recovered from
	CheckpointTime   int64      // virtual time the checkpoint was taken
	CheckpointSeg    addr.SegNo // log position named by the checkpoint
	CheckpointOff    int
	Region           uint32 // table region the checkpoint used

	PsegsReplayed   int // intact partial segments rolled forward
	BlocksReplayed  int // blocks covered by replayed partial segments
	InodesRecovered int // inode-map entries advanced by replay

	StopSeg    addr.SegNo // where replay stopped
	StopOff    int
	StopReason string // why replay stopped (torn write, stale serial, ...)

	DanglingDropped int // directory entries dropped by namespace repair
}

// Recovery reports how the last Mount recovered (zero value after Format).
func (fs *FS) Recovery() RecoveryInfo { return fs.recovery }

// Stats counts file system activity.
type Stats struct {
	DevReads, DevWrites     int64
	BytesRead, BytesWritten int64
	PartialSegs             int64
	Flushes, Checkpoints    int64
	SegsCleaned             int64
	BlocksRelocated         int64
	CacheHits, CacheMisses  int64 // buffer cache
	ReserveHits             int64 // CacheHits a demand lookup found in the pointer-block reserve
	PointerWaits            int64 // indirect-block reads that waited for tertiary storage
}

// FS is a mounted log-structured file system.
type FS struct {
	k       *sim.Kernel
	dev     Device
	fetcher Fetcher // dev's Fetcher capability, nil without one
	amap    *addr.Map
	sb      Superblock
	opts    Options
	lock    *sim.Resource
	op      readOp // the read-only operation holding the lock, if one does

	seguse []Seguse    // per disk segment
	live   []segLive   // per disk segment: the log's live count (discard.go)
	tseg   []Seguse    // per tertiary segment (dense TertIndex order)
	imap   []ImapEntry // per inode number
	nclean int         // clean, allocatable disk segments
	serial uint64      // checkpoint epoch

	curSeg addr.SegNo
	curOff int

	nextInum  uint32
	freeInums []uint32

	bufs     map[bufKey]*buf
	seqRuns  map[uint32]seqRun // per file: its sequential read run (file.go)
	lru      lruList           // every buffer but the reserve's
	reserve  lruList           // clean pointer blocks of migrated data (buffer.go)
	bufBytes int               // both lists
	dirty    map[bufKey]*buf   // the dirty buffers: markDirty adds, markClean removes
	inodes   map[uint32]*dinode
	dirtyIno map[uint32]bool

	// Reusable buffers of the block data path, all used only under lock
	// (see DESIGN.md, "Buffer ownership on the data path").
	freeBlocks  [][]byte // blocks dropBuf took back, handed out by newBlock
	fill        fillScratch
	dirImage    []byte    // the directory a lookup searches or an edit changes (readDirImage)
	renameImage []byte    // a rename's source directory
	listImage   []byte    // a listed directory (readDirLocked)
	segImage    []byte    // partial-segment assembly of the log writer (writePsegs)
	tableImage  []byte    // serializeTables' checkpoint table image
	regionImage [2][]byte // the bytes each table region holds on media, nil if not known
	ckptHeader  []byte    // writeCheckpointLocked's header block
	flush       flushScratch

	// Buffer headers dropBuf took back: dropped ones wait for unlock, free
	// ones are insertBuf's to reuse.
	droppedBufs, freeBufs []*buf

	cacheInUse  int  // disk segments currently holding cached tertiary lines
	inFlush     bool // guards against recursive segment writes
	inEmergency bool // guards against recursive emergency cleaning

	// Segments cleaned since the last checkpoint. They stay flagged dirty
	// (unallocatable) until a checkpoint makes the relocation of their
	// live data durable: reusing one earlier would let a crash resurrect a
	// checkpoint whose tables still point into the overwritten segment.
	pendingClean    []addr.SegNo
	pendingCleanSet map[addr.SegNo]bool

	// Segments whose block references a migrator has gathered but not yet
	// finished copying out. The cleaner skips them so it cannot relocate
	// blocks out from under an in-flight migration stream; see
	// ReserveSegments.
	migrateBusy map[addr.SegNo]bool

	recovery RecoveryInfo // filled by Mount

	// EmergencyClean, if set, is invoked (lock held) when the allocator
	// runs out of clean segments; it should clean at least one segment
	// and return true on success.
	EmergencyClean func(p *sim.Proc) bool

	// OnAccess, if set, observes file data accesses: the in-kernel
	// sequential block-range recording that the finer-grained migration
	// policies of §5.2 require. It must not block.
	OnAccess func(inum uint32, lbnStart, lbnEnd int32, write bool)

	stats Stats
}

// newFS returns what Format and Mount build alike: an FS over device with
// empty tables and caches, its options already filled in.
func newFS(p *sim.Proc, device Device, amap *addr.Map, opts Options) *FS {
	fs := &FS{
		k:        p.Kernel(),
		dev:      device,
		amap:     amap,
		opts:     opts,
		lock:     p.Kernel().NewResource("lfs.lock"),
		bufs:     make(map[bufKey]*buf),
		dirty:    make(map[bufKey]*buf),
		seqRuns:  make(map[uint32]seqRun),
		inodes:   make(map[uint32]*dinode),
		dirtyIno: make(map[uint32]bool),
	}
	fs.fetcher, _ = device.(Fetcher)
	return fs
}

// Format initializes an empty file system on device with the given address
// map and options, and returns it mounted.
func Format(p *sim.Proc, device Device, amap *addr.Map, opts Options) (*FS, error) {
	opts.fill(amap.SegBlocks() * BlockSize)
	fs := newFS(p, device, amap, opts)
	tb := fs.tableBlocks(opts.MaxInodes)
	reservedBlocks := 3 + 2*tb
	reservedSegs := (reservedBlocks + amap.SegBlocks() - 1) / amap.SegBlocks()
	if reservedSegs+2 > amap.DiskSegs() {
		return nil, fmt.Errorf("lfs: disk too small: %d segments, %d reserved", amap.DiskSegs(), reservedSegs)
	}
	fs.sb = Superblock{
		Magic:        superMagic,
		SegBlocks:    uint32(amap.SegBlocks()),
		DiskSegs:     uint32(amap.DiskSegs()),
		ReservedSegs: uint32(reservedSegs),
		MaxInodes:    uint32(opts.MaxInodes),
		CacheSegs:    uint32(opts.CacheSegs),
		TableBlocks:  uint32(tb),
		TertDevs:     amap.Devices(),
	}
	fs.seguse = make([]Seguse, amap.DiskSegs())
	fs.live = make([]segLive, amap.DiskSegs())
	for i := reservedSegs; i < len(fs.live); i++ {
		fs.live[i] = segLive{kept: true, discarded: true} // none holds anything of the log
	}
	for i := 0; i < reservedSegs; i++ {
		fs.seguse[i].Flags = SegNoStore
	}
	fs.nclean = amap.DiskSegs() - reservedSegs
	fs.tseg = make([]Seguse, amap.TertSegs())
	fs.imap = make([]ImapEntry, opts.MaxInodes)
	for i := range fs.imap {
		fs.imap[i].Addr = addr.NilBlock
	}
	// Reserve the special inode numbers. The ifile and tsegfile tables
	// are checkpointed into the reserved area; their inums stay claimed
	// for fidelity with the paper's layout.
	fs.imap[ifileInum].Version = 1
	fs.imap[tsegInum].Version = 1
	fs.nextInum = firstInum
	fs.serial = 1
	fs.curSeg = addr.SegNo(reservedSegs)
	fs.curOff = 0
	fs.seguse[fs.curSeg].Flags = SegActive
	fs.live[fs.curSeg].discarded = false
	fs.nclean--

	// Superblock.
	blk := make([]byte, BlockSize)
	fs.sb.encode(blk)
	if err := device.WriteBlocks(p, fs.amap.BlockOf(0, 0), blk); err != nil {
		return nil, err
	}
	// Root directory.
	root := &dinode{Inum: rootInum, Version: 1, Type: TypeDir, Nlink: 2, Mtime: fs.now(), Ctime: fs.now()}
	fs.inodes[rootInum] = root
	fs.imap[rootInum].Version = 1
	fs.dirtyIno[rootInum] = true
	if err := fs.writeDirLocked(p, root, make([]byte, BlockSize)); err != nil {
		return nil, err
	}
	if err := fs.checkpointLocked(p); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount loads an existing file system from device, rolling the log forward
// from the most recent checkpoint.
func Mount(p *sim.Proc, device Device, amap *addr.Map, opts Options) (*FS, error) {
	blk := make([]byte, BlockSize)
	if err := device.ReadBlocks(p, amap.BlockOf(0, 0), blk); err != nil {
		return nil, err
	}
	var sb Superblock
	if err := sb.decode(blk); err != nil {
		return nil, err
	}
	if int(sb.SegBlocks) != amap.SegBlocks() || int(sb.DiskSegs) != amap.DiskSegs() {
		return nil, fmt.Errorf("lfs: geometry mismatch: media %dx%d, map %dx%d",
			sb.DiskSegs, sb.SegBlocks, amap.DiskSegs(), amap.SegBlocks())
	}
	opts.fill(amap.SegBlocks() * BlockSize)
	opts.MaxInodes = int(sb.MaxInodes)
	opts.CacheSegs = int(sb.CacheSegs)
	fs := newFS(p, device, amap, opts)
	fs.sb = sb
	// Pick the newer valid checkpoint.
	var best checkpoint
	found := false
	for i := 1; i <= 2; i++ {
		if err := device.ReadBlocks(p, amap.BlockOf(0, i), blk); err != nil {
			return nil, err
		}
		var c checkpoint
		if c.decode(blk) && (!found || c.Serial > best.Serial) {
			best, found = c, true
		}
	}
	if !found {
		return nil, errors.New("lfs: no valid checkpoint")
	}
	if err := fs.loadTables(p, best); err != nil {
		return nil, err
	}
	fs.live = make([]segLive, sb.DiskSegs) // nothing kept: the log has not seen these segments die
	fs.serial = best.Serial
	fs.nextInum = best.NextInum
	fs.curSeg = best.CurSeg
	fs.curOff = int(best.CurOff)
	fs.recovery = RecoveryInfo{
		CheckpointSerial: best.Serial,
		CheckpointTime:   best.Time,
		CheckpointSeg:    best.CurSeg,
		CheckpointOff:    int(best.CurOff),
		Region:           best.Region,
	}
	if err := fs.rollForward(p, best); err != nil {
		return nil, err
	}
	// Recount clean segments, cache claims, and the free-inum list.
	fs.nclean = 0
	for i := range fs.seguse {
		if fs.seguse[i].Flags == 0 {
			fs.nclean++
		}
		if fs.seguse[i].Flags&SegCached != 0 {
			fs.cacheInUse++
		}
	}
	for i := firstInum; i < len(fs.imap); i++ {
		if fs.imap[i].Addr == addr.NilBlock && fs.imap[i].Version > 0 && uint32(i) < fs.nextInum {
			fs.freeInums = append(fs.freeInums, uint32(i))
		}
	}
	fs.serial++ // new write epoch
	return fs, nil
}

// RepairDangling walks the namespace and drops directory entries naming
// inodes the recovered map has never seen. A crash between a
// directory-data partial segment and the trailing one carrying the new
// file's inode leaves such a durable dangling dirent (4.4BSD would leave
// this to a foreground fsck; the file had no durable content, so nothing
// synced is lost). The caller invokes it once the block address space is
// fully serviceable — after the segment-cache directory is rebuilt, since
// the walk may read directories resident on tertiary storage.
func (fs *FS) RepairDangling(p *sim.Proc) (int, error) {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	dropped, err := fs.repairDanglingLocked(p)
	fs.recovery.DanglingDropped += dropped
	return dropped, err
}

// repairDanglingLocked walks the namespace and removes directory entries
// whose inode the recovered map does not contain.
func (fs *FS) repairDanglingLocked(p *sim.Proc) (int, error) {
	dropped := 0
	queue := []uint32{rootInum}
	seen := map[uint32]bool{rootInum: true}
	for len(queue) > 0 {
		inum := queue[0]
		queue = queue[1:]
		ino, err := fs.iget(p, inum)
		if err != nil {
			return dropped, fmt.Errorf("lfs: namespace repair: inode %d: %w", inum, err)
		}
		if ino.Type != TypeDir {
			continue
		}
		ents, err := fs.readDirLocked(p, ino)
		if err != nil {
			return dropped, fmt.Errorf("lfs: namespace repair: directory %d: %w", inum, err)
		}
		keep := make([]Dirent, 0, len(ents))
		for _, e := range ents {
			if int(e.Inum) >= len(fs.imap) || fs.imap[e.Inum].Addr == addr.NilBlock {
				dropped++
				continue
			}
			keep = append(keep, e)
			if !seen[e.Inum] {
				seen[e.Inum] = true
				queue = append(queue, e.Inum)
			}
		}
		if len(keep) != len(ents) {
			data := make([]byte, BlockSize)
			for _, e := range keep {
				data = dirAppend(data, e.Inum, e.Type, e.Name)
			}
			if err := fs.writeDirLocked(p, ino, data); err != nil {
				return dropped, err
			}
		}
	}
	return dropped, nil
}

// now returns the current virtual time in nanoseconds.
func (fs *FS) now() int64 { return int64(fs.k.Now()) }

// chargeCopy advances virtual time for a modelled CPU memory copy.
func (fs *FS) chargeCopy(p *sim.Proc, n int, rate int64) {
	if rate <= 0 || n <= 0 {
		return
	}
	p.Sleep(sim.Time(float64(n) / float64(rate) * 1e9))
}

// Superblock returns a copy of the on-media superblock.
func (fs *FS) Superblock() Superblock { return fs.sb }

// Stats returns a snapshot of the counters.
func (fs *FS) Stats() Stats { return fs.stats }

// CleanSegs reports the number of clean, allocatable disk segments.
func (fs *FS) CleanSegs() int { return fs.nclean }

// tableBlocks computes the size of one checkpoint table region, with
// headroom for on-line disk growth (§6.4) to twice the initial disk size.
func (fs *FS) tableBlocks(maxInodes int) int {
	segBlks := blocksFor(2 * fs.amap.DiskSegs() * seguseSize)
	tsegBlks := blocksFor(fs.amap.TertSegs() * seguseSize)
	imapBlks := blocksFor(maxInodes * imapSize)
	return 1 + segBlks + tsegBlks + imapBlks // 1 header/cleanerinfo block
}

func blocksFor(bytes int) int { return (bytes + BlockSize - 1) / BlockSize }

// tableRegionBlock returns the device block address of block i of table
// region r.
func (fs *FS) tableRegionBlock(r uint32, i int) addr.BlockNo {
	base := 3 + int(r)*int(fs.sb.TableBlocks) + i
	return fs.amap.BlockOf(addr.SegNo(base/fs.amap.SegBlocks()), base%fs.amap.SegBlocks())
}

// serializeTables renders the ifile + tsegfile tables into one buffer,
// reused from checkpoint to checkpoint and valid until the next call.
func (fs *FS) serializeTables() []byte {
	if fs.tableImage == nil {
		fs.tableImage = make([]byte, int(fs.sb.TableBlocks)*BlockSize)
	}
	out := fs.tableImage
	clear(out) // the gaps between tables are zero on media
	// Block 0: cleaner info.
	// (clean/dirty counts are recomputed at mount; block reserved for
	// layout fidelity and the dump tool.)
	off := BlockSize
	for i := range fs.seguse {
		fs.seguse[i].encode(out[off+i*seguseSize:])
	}
	off += blocksFor(len(fs.seguse)*seguseSize) * BlockSize
	for i := range fs.tseg {
		fs.tseg[i].encode(out[off+i*seguseSize:])
	}
	off += blocksFor(len(fs.tseg)*seguseSize) * BlockSize
	for i := range fs.imap {
		fs.imap[i].encode(out[off+i*imapSize:])
	}
	return out
}

// loadTables reads the table region named by checkpoint c.
func (fs *FS) loadTables(p *sim.Proc, c checkpoint) error {
	buf := make([]byte, int(fs.sb.TableBlocks)*BlockSize)
	if err := fs.dev.ReadBlocks(p, fs.tableRegionBlock(c.Region, 0), buf); err != nil {
		return err
	}
	fs.regionImage[c.Region] = buf
	fs.seguse = make([]Seguse, fs.sb.DiskSegs)
	fs.tseg = make([]Seguse, fs.amap.TertSegs())
	fs.imap = make([]ImapEntry, fs.sb.MaxInodes)
	off := BlockSize
	for i := range fs.seguse {
		fs.seguse[i].decode(buf[off+i*seguseSize:])
	}
	off += blocksFor(len(fs.seguse)*seguseSize) * BlockSize
	for i := range fs.tseg {
		fs.tseg[i].decode(buf[off+i*seguseSize:])
		// An image of an older format may carry segRetired; cleared here,
		// it is gone from the next checkpoint.
		fs.tseg[i].Flags &^= segRetired
	}
	off += blocksFor(len(fs.tseg)*seguseSize) * BlockSize
	for i := range fs.imap {
		fs.imap[i].decode(buf[off+i*imapSize:])
	}
	return nil
}

// commitCleanedLocked makes the segments cleaned since the last
// checkpoint allocatable again. Called only from writeCheckpointLocked,
// so the transition becomes durable with the tables about to be written —
// and no log write can land in a committed segment before the checkpoint
// header does.
func (fs *FS) commitCleanedLocked() {
	for _, seg := range fs.pendingClean {
		su := &fs.seguse[seg]
		su.Flags = 0
		su.LiveBytes = 0
		su.CacheTag = 0
		fs.nclean++
	}
	fs.pendingClean = fs.pendingClean[:0]
	fs.pendingCleanSet = nil
}

// checkpointLocked flushes all dirty state and writes a checkpoint: tables
// to the ping-pong region, then the checkpoint header. Requires the lock.
func (fs *FS) checkpointLocked(p *sim.Proc) error {
	if err := fs.flushLocked(p, true); err != nil {
		return err
	}
	if err := fs.writeCheckpointLocked(p); err != nil {
		return err
	}
	fs.discardDeadLocked()
	return nil
}

// writeCheckpointLocked writes the tables and checkpoint header for the
// current in-memory state, with write barriers so that (1) everything the
// tables describe is durable before the header names them and (2) the
// header itself is durable on return. The caller must have flushed any
// dirty file data first (or be at a point where the tables are consistent
// with the media, as after a cleaner pass).
func (fs *FS) writeCheckpointLocked(p *sim.Proc) error {
	fs.commitCleanedLocked()
	region := uint32(fs.serial % 2)
	if err := fs.writeTablesLocked(p, region); err != nil {
		return err
	}
	// Barrier: the log writes and tables must be durable before the
	// checkpoint header can name them.
	if err := fs.flushDevice(p); err != nil {
		return err
	}
	c := checkpoint{
		Serial:   fs.serial,
		Time:     fs.now(),
		CurSeg:   fs.curSeg,
		CurOff:   uint32(fs.curOff),
		NextInum: fs.nextInum,
		Region:   region,
	}
	if fs.ckptHeader == nil {
		fs.ckptHeader = make([]byte, BlockSize)
	}
	c.encode(fs.ckptHeader) // zeroes it first; WriteBlocks copies it
	slot := 1 + int(fs.serial%2)
	if err := fs.dev.WriteBlocks(p, fs.amap.BlockOf(0, slot), fs.ckptHeader); err != nil {
		return err
	}
	// Barrier: a checkpoint is not complete until its header is on media.
	if err := fs.flushDevice(p); err != nil {
		return err
	}
	fs.serial++
	fs.stats.Checkpoints++
	return nil
}

// writeTablesLocked writes the tables to region: only the runs of blocks
// that differ from the image the region last received, one request per run,
// or the whole region when its contents are not known (after Format, after a
// mount for the region loadTables did not read, after a failed write). A run
// longer than a segment goes in segment-sized requests.
func (fs *FS) writeTablesLocked(p *sim.Proc, region uint32) error {
	tables := fs.serializeTables()
	old := fs.regionImage[region]
	fs.regionImage[region] = nil // unknown until every write has returned
	chunk := fs.amap.SegBlocks()
	n := len(tables) / BlockSize
	same := func(b int) bool {
		return old != nil && bytes.Equal(tables[b*BlockSize:(b+1)*BlockSize], old[b*BlockSize:(b+1)*BlockSize])
	}
	for b := 0; b < n; {
		if same(b) {
			b++
			continue
		}
		end := b + 1
		for end < n && end-b < chunk && !same(end) {
			end++
		}
		if err := fs.dev.WriteBlocks(p, fs.tableRegionBlock(region, b), tables[b*BlockSize:end*BlockSize]); err != nil {
			return err
		}
		b = end
	}
	// The region now holds tables; the image it held before is the next
	// checkpoint's to render into.
	fs.regionImage[region], fs.tableImage = tables, old
	return nil
}

// Checkpoint flushes all dirty state and writes a recovery checkpoint.
func (fs *FS) Checkpoint(p *sim.Proc) error {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	return fs.checkpointLocked(p)
}

// CheckpointTables writes the in-memory tables and a checkpoint header
// WITHOUT flushing dirty buffers first. The tables always reflect every
// partial segment already in the log (imap and segment usage are updated
// at log-write time), so the result is a consistent recovery point; what
// it does not capture is metadata dirtied but not yet written. The
// migrator uses it to make a staging-line binding durable without
// relocating the dirty flipped metadata of an in-flight migration batch
// (a full checkpoint's flush would invalidate the batch's captured block
// refs). Live-byte accounting applied at operation time (unlinks,
// migration pointer flips) may be slightly ahead of the durable pointers
// in the written tables; recovery heals that by recomputing the counts
// from a namespace walk (RecomputeLiveBytes).
func (fs *FS) CheckpointTables(p *sim.Proc) error {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	return fs.writeCheckpointLocked(p)
}

// RecomputeLiveBytes rebuilds the live-byte accounting of the disk and
// tertiary segment usage tables from a namespace walk. After a crash the
// checkpointed counts can disagree with the durable pointers in either
// direction: roll-forward re-adds bytes for replayed partial segments but
// never subtracts the copies they superseded (over-count), and a
// table-only checkpoint (CheckpointTables, the cleaner's commit) can
// capture operation-time decrements whose pointer updates never reached
// the log (under-count — the dangerous direction, since the verifier and
// the cleaner both trust the counts). The walk restores exact agreement
// with the reachable state. The caller invokes it once the block address
// space is fully serviceable (after the segment-cache directory is
// rebuilt), since the walk may demand-fetch migrated metadata.
func (fs *FS) RecomputeLiveBytes(p *sim.Proc) error {
	var inums []uint32
	if err := fs.Walk(p, "/", func(path string, fi FileInfo) error {
		inums = append(inums, fi.Inum)
		return nil
	}); err != nil {
		return err
	}
	liveDisk := make([]uint32, fs.amap.DiskSegs())
	liveTseg := make([]uint32, len(fs.tseg))
	account := func(a addr.BlockNo, n uint32) {
		seg := fs.amap.SegOf(a)
		if fs.amap.IsDiskSeg(seg) {
			liveDisk[seg] += n
		} else if idx, ok := fs.amap.TertIndex(seg); ok {
			liveTseg[idx] += n
		}
	}
	for _, inum := range inums {
		refs, err := fs.FileBlockRefs(p, inum)
		if err != nil {
			return fmt.Errorf("lfs: recomputing live bytes: inode %d: %w", inum, err)
		}
		for _, ref := range refs {
			account(ref.Addr, BlockSize)
		}
		if e := fs.Imap(inum); e.Addr != addr.NilBlock {
			account(e.Addr, InodeSize)
		}
	}
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	for s := range fs.seguse {
		su := &fs.seguse[s]
		if s < int(fs.sb.ReservedSegs) || su.Flags&SegCached != 0 {
			continue
		}
		su.LiveBytes = liveDisk[s]
	}
	for i := range fs.tseg {
		su := &fs.tseg[i]
		su.LiveBytes = liveTseg[i]
		if liveTseg[i] > 0 {
			su.Flags |= SegDirty
		}
	}
	return nil
}

// Sync writes all dirty data to the log without checkpointing the tables,
// then drains the device write cache: synced data must survive a crash
// (roll-forward replays it from the log).
func (fs *FS) Sync(p *sim.Proc) error {
	fs.acquire(p)
	defer fs.unlock(p)
	if err := fs.flushLocked(p, true); err != nil {
		return err
	}
	return fs.flushDevice(p)
}

// rollForward scans the threaded log from the checkpoint position and
// re-applies inode updates from intact partial segments (§3: "during
// recovery the system will roll-forward from the last checkpoint").
func (fs *FS) rollForward(p *sim.Proc, c checkpoint) error {
	seg, off := c.CurSeg, int(c.CurOff)
	segBuf := make([]byte, BlockSize)
	stop := ""
	for stop == "" {
		if off+2 > fs.amap.SegBlocks() {
			// Segment exhausted at checkpoint time; recovery state
			// already points at its end — nothing was written after.
			stop = "segment exhausted at checkpoint"
			break
		}
		base := fs.amap.BlockOf(seg, off)
		if err := fs.dev.ReadBlocks(p, base, segBuf); err != nil {
			return err
		}
		sum, err := decodeSummary(segBuf)
		// Partial segments written after checkpoint N carry serial N+1
		// (the epoch advances as the checkpoint completes); anything
		// else is stale data from an earlier life of the segment.
		switch {
		case err != nil:
			stop = "no valid summary (end of log or torn summary block)"
		case sum.Serial != c.Serial+1:
			stop = fmt.Sprintf("stale summary (serial %d, wanted %d)", sum.Serial, c.Serial+1)
		case sum.NBlocks < 1 || off+int(sum.NBlocks) > fs.amap.SegBlocks():
			stop = fmt.Sprintf("bad partial-segment length %d", sum.NBlocks)
		}
		if stop != "" {
			break
		}
		// Verify the data checksum before applying.
		body := make([]byte, (int(sum.NBlocks)-1)*BlockSize)
		if len(body) > 0 {
			if err := fs.dev.ReadBlocks(p, base+1, body); err != nil {
				return err
			}
			if crc32Sum(body) != sum.DataSum {
				stop = "data checksum mismatch (torn write)"
				break
			}
		}
		fs.recovery.PsegsReplayed++
		fs.recovery.BlocksReplayed += int(sum.NBlocks)
		fs.applyPsegment(seg, off, sum, body)
		off += int(sum.NBlocks)
		if sum.Next != seg {
			seg, off = sum.Next, 0
		}
	}
	fs.curSeg, fs.curOff = seg, off
	fs.seguse[seg].Flags |= SegActive
	fs.recovery.StopSeg = seg
	fs.recovery.StopOff = off
	fs.recovery.StopReason = stop
	return nil
}

// applyPsegment updates the inode map and segment usage from one recovered
// partial segment.
func (fs *FS) applyPsegment(seg addr.SegNo, off int, sum *Summary, body []byte) {
	su := &fs.seguse[seg]
	su.Flags |= SegDirty
	su.Flags &^= SegActive
	su.LiveBytes += uint32(int(sum.NBlocks) * BlockSize)
	su.LastMod = sum.Create
	base := fs.amap.BlockOf(seg, off)
	for _, ia := range sum.InoAddrs {
		idx := int(ia-base) - 1 // block index within body
		if idx < 0 || (idx+1)*BlockSize > len(body) {
			continue
		}
		blk := body[idx*BlockSize : (idx+1)*BlockSize]
		for slot := 0; slot < InodesPerBlock; slot++ {
			var ino dinode
			ino.decode(blk[slot*InodeSize:])
			if ino.Inum == 0 || int(ino.Inum) >= len(fs.imap) {
				continue
			}
			e := &fs.imap[ino.Inum]
			// Accept the same or a newer version: files created or
			// reallocated after the checkpoint carry versions the
			// checkpointed map has not seen.
			if ino.Version >= e.Version {
				e.Addr = ia
				e.Slot = uint32(slot)
				e.Version = ino.Version
				if ino.Inum >= fs.nextInum {
					fs.nextInum = ino.Inum + 1
				}
				fs.recovery.InodesRecovered++
			}
		}
	}
}

// AllocCacheSegmentLocked-style API for HighLight's segment cache: claim a
// clean disk segment as a cache line for tertiary segment index tag.
func (fs *FS) AllocCacheSegment(p *sim.Proc, tag uint32, staging bool) (addr.SegNo, error) {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	if fs.cacheInUse >= int(fs.sb.CacheSegs) {
		return 0, ErrNoSpace
	}
	lo, hi := addr.SegNo(fs.opts.CacheSegLo), addr.SegNo(fs.opts.CacheSegHi)
	if hi == 0 {
		hi = addr.SegNo(fs.amap.DiskSegs())
	}
	// Allocate cache lines from the top of the eligible range downwards:
	// the cache split occupies the far end of the disk, away from the
	// log's fresh segments (so staging traffic pays real seeks against
	// the migrator's gather reads — the disk-arm contention of Table 6).
	for s := hi - 1; s+1 > lo; s-- {
		if fs.seguse[s].Flags == 0 {
			su := &fs.seguse[s]
			su.Flags = SegCached
			if staging {
				su.Flags |= SegStaging
			}
			su.CacheTag = tag
			su.LastMod = fs.now()
			fs.live[s] = segLive{} // the cache's from now on, never the log's
			fs.nclean--
			fs.cacheInUse++
			return s, nil
		}
	}
	return 0, ErrNoSpace
}

// NilCacheTag marks a cache-reserved segment not currently bound to any
// tertiary segment.
const NilCacheTag = ^uint32(0)

// SetCacheBinding records which tertiary segment a cache-line disk segment
// holds (NilCacheTag for an unbound pool line). It is called through the
// cache directory's Bind hook, also from the service and I/O processes,
// which must never take the file system lock (a demand fetch runs while the
// faulting reader holds it); the update is a single non-blocking store, so
// the cooperative scheduler makes it atomic. A binding that does not change
// writes nothing, LastMod included: mount re-inserts every bound line.
func (fs *FS) SetCacheBinding(s addr.SegNo, tag uint32, staging bool) {
	su := &fs.seguse[s]
	if su.Flags&SegCached == 0 {
		panic("lfs: cache binding on non-cache segment")
	}
	if su.CacheTag == tag && (su.Flags&SegStaging != 0) == staging {
		return
	}
	su.CacheTag = tag
	if staging {
		su.Flags |= SegStaging
	} else {
		su.Flags &^= SegStaging
	}
	su.LastMod = fs.now()
}

// CacheSegsInUse reports how many disk segments hold cached tertiary lines.
func (fs *FS) CacheSegsInUse() int { return fs.cacheInUse }

// MaxCacheSegs reports the static cache limit chosen at format time.
func (fs *FS) MaxCacheSegs() int { return int(fs.sb.CacheSegs) }

// SegUsage returns a copy of a disk segment's usage entry.
func (fs *FS) SegUsage(s addr.SegNo) Seguse { return fs.seguse[s] }

// TsegUsage returns a copy of a tertiary segment's usage entry (by dense
// tertiary index).
func (fs *FS) TsegUsage(idx int) Seguse { return fs.tseg[idx] }

// MarkTsegWritten marks a tertiary segment as holding data (called when a
// staging segment has been copied out).
func (fs *FS) MarkTsegWritten(idx int) {
	fs.tseg[idx].Flags |= SegDirty
	fs.tseg[idx].LastMod = fs.now()
}

// MarkTsegNoStore marks a tertiary segment as having no storage behind it
// (the tail of a volume that returned end-of-medium, §6.3).
func (fs *FS) MarkTsegNoStore(idx int) {
	fs.tseg[idx].Flags |= SegNoStore
	fs.tseg[idx].Avail = 0
}

// ResetTseg returns a tertiary segment to the never-used state (the
// tertiary cleaner erased its medium).
func (fs *FS) ResetTseg(idx int) {
	fs.tseg[idx] = Seguse{}
}

// RestoreTsegUsage reconstructs a tertiary segment's usage entry during
// crash recovery from the checksum-valid prefix of its recovered staging
// image: the in-memory accounting done by Migratev (live bytes plus
// dirty flag) is durable only at the next checkpoint, so after a
// mid-migration crash the checkpointed entry may undercount data that
// roll-forward made reachable. liveBytes is an upper bound (whole valid
// psegs), which only ever over-counts — the safe direction for both the
// verifier and the cleaner.
func (fs *FS) RestoreTsegUsage(idx int, liveBytes uint32) {
	su := &fs.tseg[idx]
	su.Flags |= SegDirty
	if su.LiveBytes < liveBytes {
		su.LiveBytes = liveBytes
	}
	su.LastMod = fs.now()
}

// TsegCount reports the tertiary segment table size.
func (fs *FS) TsegCount() int { return len(fs.tseg) }

// ReservedSegs reports the number of boot-area segments.
func (fs *FS) ReservedSegs() int { return int(fs.sb.ReservedSegs) }

// Imap returns a copy of an inode-map entry.
func (fs *FS) Imap(inum uint32) ImapEntry { return fs.imap[inum] }

// Usage summarizes storage occupancy for df-style reporting.
type Usage struct {
	DiskSegs     int // total disk segments
	ReservedSegs int // boot area (superblock + checkpoint tables)
	CleanSegs    int // allocatable
	DirtySegs    int // hold log data
	CacheSegs    int // reserved as tertiary cache lines
	NoStoreSegs  int // retired / no storage behind them
	LiveBytes    int64
	TertSegsUsed int
	TertLive     int64
	InodesUsed   int
	InodesMax    int
}

// Usage reports current occupancy (no I/O; reads the in-memory tables).
func (fs *FS) Usage() Usage {
	u := Usage{
		DiskSegs:     fs.amap.DiskSegs(),
		ReservedSegs: int(fs.sb.ReservedSegs),
		InodesMax:    len(fs.imap),
	}
	for i := range fs.seguse {
		su := &fs.seguse[i]
		switch {
		case su.Flags&SegCached != 0:
			u.CacheSegs++
		case su.Flags&SegNoStore != 0:
			u.NoStoreSegs++
		case su.Flags&(SegDirty|SegActive) != 0:
			u.DirtySegs++
			u.LiveBytes += int64(su.LiveBytes)
		default:
			u.CleanSegs++
		}
	}
	// The boot area is flagged no-store; report it separately.
	u.NoStoreSegs -= u.ReservedSegs
	for i := range fs.tseg {
		if fs.tseg[i].Flags&SegDirty != 0 {
			u.TertSegsUsed++
			u.TertLive += int64(fs.tseg[i].LiveBytes)
		}
	}
	for i := firstInum; i < len(fs.imap); i++ {
		if fs.imap[i].Addr != addr.NilBlock {
			u.InodesUsed++
		}
	}
	return u
}

// FlushCaches drops the clean contents of the buffer and inode caches
// after writing out dirty state. Benchmarks use it to force cold reads.
func (fs *FS) FlushCaches(p *sim.Proc) error {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	if err := fs.flushLocked(p, true); err != nil {
		return err
	}
	if err := fs.flushDevice(p); err != nil {
		return err
	}
	for _, l := range []*lruList{&fs.lru, &fs.reserve} {
		for l.head != nil {
			fs.dropBuf(l.head) // everything is clean after the flush
		}
	}
	fs.inodes = make(map[uint32]*dinode)
	fs.seqRuns = make(map[uint32]seqRun)
	return nil
}
