// Package lfs implements a user-level 4.4BSD-style log-structured file
// system (§3 of the HighLight paper) over a timed block device.
//
// All data live in a segmented log: the device is divided into large
// segments written sequentially; each segment holds one or more partial
// segments, each an atomic log append headed by a summary block (Table 1).
// Two auxiliary structures — the inode map and the segment usage table —
// track the current location of every inode and the state of every segment.
// A user-level cleaner reclaims space by copying live data from dirty
// segments to the tail of the log.
//
// Deviations from 4.4BSD LFS (documented in DESIGN.md): the ifile tables
// are checkpointed into a reserved area at the head of the disk rather than
// written through the log (this removes the self-reference between the
// segment usage table and its own log writes), and directory blocks use a
// simple packed record format rather than BSD dirents. Like HighLight, the
// partial-segment summary occupies a full 4 KB block and block pointers
// address 4 KB units.
package lfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/addr"
	"repro/internal/dev"
)

// BlockSize is the file system block size in bytes.
const BlockSize = dev.BlockSize

// Fundamental layout constants.
const (
	superMagic   = 0x4c465321 // "LFS!"
	summaryMagic = 0x50534547 // "PSEG"

	// summaryHeader is the fixed part of a summary block; the inode block
	// addresses and the finfos follow it.
	summaryHeader = 40

	// NDirect is the number of direct block pointers per inode.
	NDirect = 12
	// PtrsPerBlock is the number of block pointers in an indirect block.
	PtrsPerBlock = BlockSize / 4

	// InodeSize is the on-media inode size; InodesPerBlock inodes pack
	// into one block.
	InodeSize      = 128
	InodesPerBlock = BlockSize / InodeSize

	// Reserved inode numbers.
	IfileInum = 1 // the ifile (segment usage + inode map tables)
	TsegInum  = 2 // the tertiary segment summary file (HighLight)
	RootInum  = 3 // the root directory
	FirstInum = 4 // first allocatable inode

	// SeguseSize is the on-media size of one segment-usage entry;
	// ImapSize of one inode-map entry.
	SeguseSize = 32
	ImapSize   = 32
)

// Meta logical block numbers (negative lbns name a file's indirect blocks,
// in the 4.4BSD style).
const (
	// LbnSingle is the single indirect block, covering lbns
	// [NDirect, NDirect+PtrsPerBlock).
	LbnSingle int32 = -1
	// LbnDoubleRoot is the double-indirect root block.
	LbnDoubleRoot int32 = -2
	// Double-indirect children use LbnDoubleChild(i) = -(3+i).
)

// LbnDoubleChild returns the meta lbn of child i of the double-indirect
// root, covering lbns [NDirect+PtrsPerBlock+i*PtrsPerBlock, ...+PtrsPerBlock).
func LbnDoubleChild(i int) int32 { return -(3 + int32(i)) }

// MaxFileBlocks is the largest file size in blocks (direct + single +
// double indirect).
const MaxFileBlocks = NDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// FileType distinguishes regular files and directories.
type FileType uint8

const (
	TypeFree FileType = iota
	TypeFile
	TypeDir
)

// Segment usage flags (the ifile's per-segment state, extended by
// HighLight per §6.4).
const (
	SegDirty   uint32 = 1 << 0 // contains live data
	SegActive  uint32 = 1 << 1 // current tail of the log
	SegCached  uint32 = 1 << 2 // holds a cached copy of a tertiary segment
	SegStaging uint32 = 1 << 3 // cached line being assembled / not yet copied out
	SegNoStore uint32 = 1 << 4 // removed from service (no storage behind it)
	SegPinned  uint32 = 1 << 5 // HSM pin: evictor/cleaner/migrator must not touch it
)

// Seguse is one segment-usage entry. For disk segments it describes log
// state; HighLight keeps tertiary segment summaries "in the same format as
// the secondary segment summaries found in the ifile" (§6.4) in the
// companion tsegfile.
type Seguse struct {
	Flags     uint32
	LiveBytes uint32
	LastMod   int64  // virtual time of last write, ns
	CacheTag  uint32 // tertiary segment index cached here (SegCached)
	Avail     uint32 // bytes of storage available (compression bookkeeping)
}

func (s *Seguse) encode(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], s.Flags)
	binary.LittleEndian.PutUint32(b[4:], s.LiveBytes)
	binary.LittleEndian.PutUint64(b[8:], uint64(s.LastMod))
	binary.LittleEndian.PutUint32(b[16:], s.CacheTag)
	binary.LittleEndian.PutUint32(b[20:], s.Avail)
}

func (s *Seguse) decode(b []byte) {
	s.Flags = binary.LittleEndian.Uint32(b[0:])
	s.LiveBytes = binary.LittleEndian.Uint32(b[4:])
	s.LastMod = int64(binary.LittleEndian.Uint64(b[8:]))
	s.CacheTag = binary.LittleEndian.Uint32(b[16:])
	s.Avail = binary.LittleEndian.Uint32(b[20:])
}

// ImapEntry is one inode-map entry: the current address of the inode plus
// bookkeeping the migrator reads without touching the file (access time
// lives here so reads do not dirty inodes, as in 4.4BSD LFS).
type ImapEntry struct {
	Addr    addr.BlockNo // block holding the inode (NilBlock if free)
	Slot    uint32       // index within the inode block
	Version uint32       // incremented when the inum is reused
	Atime   int64        // last access, virtual ns
}

func (e *ImapEntry) encode(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], uint32(e.Addr))
	binary.LittleEndian.PutUint32(b[4:], e.Slot)
	binary.LittleEndian.PutUint32(b[8:], e.Version)
	binary.LittleEndian.PutUint64(b[12:], uint64(e.Atime))
}

func (e *ImapEntry) decode(b []byte) {
	e.Addr = addr.BlockNo(binary.LittleEndian.Uint32(b[0:]))
	e.Slot = binary.LittleEndian.Uint32(b[4:])
	e.Version = binary.LittleEndian.Uint32(b[8:])
	e.Atime = int64(binary.LittleEndian.Uint64(b[12:]))
}

// ErrBadInode is returned for an inode-map entry that does not name the
// inode it maps: a slot past the end of an inode block, or one that holds
// another inode.
var ErrBadInode = errors.New("lfs: inode map and inode block disagree")

// inodeAt decodes inode inum from data, its inode block, at the slot the
// inode-map entry e names.
func inodeAt(data []byte, e ImapEntry, inum uint32) (*Inode, error) {
	if e.Slot >= InodesPerBlock {
		return nil, fmt.Errorf("%w: inode %d at slot %d of block %d, which has %d", ErrBadInode, inum, e.Slot, e.Addr, InodesPerBlock)
	}
	ino := &Inode{}
	ino.decode(data[int(e.Slot)*InodeSize:])
	if ino.Inum != inum {
		return nil, fmt.Errorf("%w: inode block at %d slot %d holds inum %d, want %d", ErrBadInode, e.Addr, e.Slot, ino.Inum, inum)
	}
	return ino, nil
}

// Inode is the in-memory and (via encode/decode) on-media inode.
type Inode struct {
	Inum    uint32
	Version uint32
	Type    FileType
	Nlink   uint32
	Size    uint64
	Mtime   int64
	Ctime   int64
	Direct  [NDirect]addr.BlockNo
	Single  addr.BlockNo // single indirect
	Double  addr.BlockNo // double indirect root
}

func (ino *Inode) encode(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], ino.Inum)
	binary.LittleEndian.PutUint32(b[4:], ino.Version)
	b[8] = byte(ino.Type)
	binary.LittleEndian.PutUint32(b[12:], ino.Nlink)
	binary.LittleEndian.PutUint64(b[16:], ino.Size)
	binary.LittleEndian.PutUint64(b[24:], uint64(ino.Mtime))
	binary.LittleEndian.PutUint64(b[32:], uint64(ino.Ctime))
	off := 40
	for i := 0; i < NDirect; i++ {
		binary.LittleEndian.PutUint32(b[off:], uint32(ino.Direct[i]))
		off += 4
	}
	binary.LittleEndian.PutUint32(b[off:], uint32(ino.Single))
	binary.LittleEndian.PutUint32(b[off+4:], uint32(ino.Double))
}

func (ino *Inode) decode(b []byte) {
	ino.Inum = binary.LittleEndian.Uint32(b[0:])
	ino.Version = binary.LittleEndian.Uint32(b[4:])
	ino.Type = FileType(b[8])
	ino.Nlink = binary.LittleEndian.Uint32(b[12:])
	ino.Size = binary.LittleEndian.Uint64(b[16:])
	ino.Mtime = int64(binary.LittleEndian.Uint64(b[24:]))
	ino.Ctime = int64(binary.LittleEndian.Uint64(b[32:]))
	off := 40
	for i := 0; i < NDirect; i++ {
		ino.Direct[i] = addr.BlockNo(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	ino.Single = addr.BlockNo(binary.LittleEndian.Uint32(b[off:]))
	ino.Double = addr.BlockNo(binary.LittleEndian.Uint32(b[off+4:]))
}

// Finfo describes the blocks of one file within a partial segment
// (Table 1: "file block description information").
type Finfo struct {
	Inum    uint32
	Version uint32
	Lbns    []int32 // logical block numbers, negative for indirect blocks
}

// Summary is a partial-segment summary block (Table 1). It heads every
// partial segment, cataloguing its contents so the cleaner and roll-forward
// recovery can interpret the log.
type Summary struct {
	SumSum   uint32 // checksum of the summary block
	DataSum  uint32 // checksum of the partial segment's data
	Next     addr.SegNo
	Create   int64  // creation time stamp (virtual ns)
	Serial   uint64 // checkpoint epoch that wrote this partial segment
	Flags    uint16
	NBlocks  uint16 // total blocks in this partial segment incl. summary
	Finfos   []Finfo
	InoAddrs []addr.BlockNo // disk addresses of inode blocks
}

// Summary flags.
const (
	// SumCheckpoint marks the partial segment written by a checkpoint.
	SumCheckpoint uint16 = 1 << 0
	// SumStaging marks a staging (to-be-migrated) segment image.
	SumStaging uint16 = 1 << 1
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// crc32Sum is the checksum used for summary and data verification.
func crc32Sum(b []byte) uint32 { return crc32.Checksum(b, crcTab) }

// EncodeSummary serializes s into a BlockSize buffer, computing SumSum.
// DataSum must already be set.
func EncodeSummary(s *Summary, b []byte) error {
	for i := range b {
		b[i] = 0
	}
	binary.LittleEndian.PutUint32(b[0:], summaryMagic)
	// b[4:8] SumSum filled last; b[8:12] DataSum.
	binary.LittleEndian.PutUint32(b[8:], s.DataSum)
	binary.LittleEndian.PutUint32(b[12:], uint32(s.Next))
	binary.LittleEndian.PutUint64(b[16:], uint64(s.Create))
	binary.LittleEndian.PutUint16(b[24:], uint16(len(s.Finfos)))
	binary.LittleEndian.PutUint16(b[26:], uint16(len(s.InoAddrs)))
	binary.LittleEndian.PutUint16(b[28:], s.Flags)
	binary.LittleEndian.PutUint16(b[30:], s.NBlocks)
	binary.LittleEndian.PutUint64(b[32:], s.Serial)
	off := summaryHeader
	need := func(n int) error {
		if off+n > len(b) {
			return fmt.Errorf("lfs: summary overflow (%d finfos, %d inode blocks)", len(s.Finfos), len(s.InoAddrs))
		}
		return nil
	}
	for _, ia := range s.InoAddrs {
		if err := need(4); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(b[off:], uint32(ia))
		off += 4
	}
	for i := range s.Finfos {
		f := &s.Finfos[i]
		if err := need(12 + 4*len(f.Lbns)); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(b[off:], f.Inum)
		binary.LittleEndian.PutUint32(b[off+4:], f.Version)
		binary.LittleEndian.PutUint32(b[off+8:], uint32(len(f.Lbns)))
		off += 12
		for _, l := range f.Lbns {
			binary.LittleEndian.PutUint32(b[off:], uint32(l))
			off += 4
		}
	}
	binary.LittleEndian.PutUint32(b[4:], 0)
	s.SumSum = crc32.Checksum(b, crcTab)
	binary.LittleEndian.PutUint32(b[4:], s.SumSum)
	return nil
}

// ErrBadSummary reports a block that cannot be a summary whatever its
// checksum says: shorter than the header, or with counts that run past its
// end. Media content is input: callers end their walk of the log there.
var ErrBadSummary = errors.New("lfs: bad summary block")

// DecodeSummary parses a summary block, verifying magic and checksum and
// every count against the length of b.
func DecodeSummary(b []byte) (*Summary, error) {
	if len(b) < summaryHeader {
		return nil, fmt.Errorf("%w: %d bytes, the header takes %d", ErrBadSummary, len(b), summaryHeader)
	}
	if binary.LittleEndian.Uint32(b[0:]) != summaryMagic {
		return nil, fmt.Errorf("lfs: bad summary magic %#x", binary.LittleEndian.Uint32(b[0:]))
	}
	s := &Summary{}
	s.SumSum = binary.LittleEndian.Uint32(b[4:])
	tmp := make([]byte, len(b))
	copy(tmp, b)
	binary.LittleEndian.PutUint32(tmp[4:], 0)
	if got := crc32.Checksum(tmp, crcTab); got != s.SumSum {
		return nil, fmt.Errorf("lfs: summary checksum mismatch (got %#x, want %#x)", got, s.SumSum)
	}
	s.DataSum = binary.LittleEndian.Uint32(b[8:])
	s.Next = addr.SegNo(binary.LittleEndian.Uint32(b[12:]))
	s.Create = int64(binary.LittleEndian.Uint64(b[16:]))
	nfinfo := int(binary.LittleEndian.Uint16(b[24:]))
	ninos := int(binary.LittleEndian.Uint16(b[26:]))
	s.Flags = binary.LittleEndian.Uint16(b[28:])
	s.NBlocks = binary.LittleEndian.Uint16(b[30:])
	s.Serial = binary.LittleEndian.Uint64(b[32:])
	off := summaryHeader
	// need checks that a list of n words follows off inside b.
	need := func(n uint32) error {
		if uint64(n)*4 > uint64(len(b)-off) {
			return fmt.Errorf("%w: %d words at offset %d of %d (%d finfos, %d inode blocks)",
				ErrBadSummary, n, off, len(b), nfinfo, ninos)
		}
		return nil
	}
	if err := need(uint32(ninos)); err != nil {
		return nil, err
	}
	for i := 0; i < ninos; i++ {
		s.InoAddrs = append(s.InoAddrs, addr.BlockNo(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	for i := 0; i < nfinfo; i++ {
		if err := need(3); err != nil {
			return nil, err
		}
		var f Finfo
		f.Inum = binary.LittleEndian.Uint32(b[off:])
		f.Version = binary.LittleEndian.Uint32(b[off+4:])
		n := binary.LittleEndian.Uint32(b[off+8:])
		off += 12
		if err := need(n); err != nil {
			return nil, err
		}
		for j := uint32(0); j < n; j++ {
			f.Lbns = append(f.Lbns, int32(binary.LittleEndian.Uint32(b[off:])))
			off += 4
		}
		s.Finfos = append(s.Finfos, f)
	}
	return s, nil
}

// Superblock describes the file system geometry; it lives in block 0 and is
// written once at format time.
type Superblock struct {
	Magic        uint32
	SegBlocks    uint32
	DiskSegs     uint32
	ReservedSegs uint32 // boot area: superblock, checkpoints, table regions
	MaxInodes    uint32
	CacheSegs    uint32 // max segments usable as tertiary cache
	TableBlocks  uint32 // size of one checkpoint table region, in blocks
	TertDevs     []addr.Geom
}

func (sb *Superblock) encode(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], superMagic)
	binary.LittleEndian.PutUint32(b[4:], sb.SegBlocks)
	binary.LittleEndian.PutUint32(b[8:], sb.DiskSegs)
	binary.LittleEndian.PutUint32(b[12:], sb.ReservedSegs)
	binary.LittleEndian.PutUint32(b[16:], sb.MaxInodes)
	binary.LittleEndian.PutUint32(b[20:], sb.CacheSegs)
	binary.LittleEndian.PutUint32(b[24:], sb.TableBlocks)
	binary.LittleEndian.PutUint32(b[28:], uint32(len(sb.TertDevs)))
	off := 32
	for _, g := range sb.TertDevs {
		binary.LittleEndian.PutUint32(b[off:], uint32(g.Vols))
		binary.LittleEndian.PutUint32(b[off+4:], uint32(g.SegsPerVol))
		off += 8
	}
}

func (sb *Superblock) decode(b []byte) error {
	if binary.LittleEndian.Uint32(b[0:]) != superMagic {
		return fmt.Errorf("lfs: bad superblock magic %#x", binary.LittleEndian.Uint32(b[0:]))
	}
	sb.Magic = superMagic
	sb.SegBlocks = binary.LittleEndian.Uint32(b[4:])
	sb.DiskSegs = binary.LittleEndian.Uint32(b[8:])
	sb.ReservedSegs = binary.LittleEndian.Uint32(b[12:])
	sb.MaxInodes = binary.LittleEndian.Uint32(b[16:])
	sb.CacheSegs = binary.LittleEndian.Uint32(b[20:])
	sb.TableBlocks = binary.LittleEndian.Uint32(b[24:])
	n := int(binary.LittleEndian.Uint32(b[28:]))
	if n > (len(b)-32)/8 {
		return fmt.Errorf("lfs: superblock names %d tertiary devices, a block holds %d", n, (len(b)-32)/8)
	}
	off := 32
	sb.TertDevs = nil
	for i := 0; i < n; i++ {
		sb.TertDevs = append(sb.TertDevs, addr.Geom{
			Vols:       int(binary.LittleEndian.Uint32(b[off:])),
			SegsPerVol: int(binary.LittleEndian.Uint32(b[off+4:])),
		})
		off += 8
	}
	return nil
}

// checkpoint is a checkpoint header. Two alternate (blocks 1 and 2); the
// one with the higher serial and valid checksum wins at mount time.
type checkpoint struct {
	Serial   uint64
	Time     int64
	CurSeg   addr.SegNo // log tail segment at checkpoint time
	CurOff   uint32     // next free block offset within CurSeg
	NextInum uint32     // next never-used inode number
	Region   uint32     // which table region (0 or 1) holds the tables
}

func (c *checkpoint) encode(b []byte) {
	for i := range b {
		b[i] = 0
	}
	binary.LittleEndian.PutUint64(b[0:], c.Serial)
	binary.LittleEndian.PutUint64(b[8:], uint64(c.Time))
	binary.LittleEndian.PutUint32(b[16:], uint32(c.CurSeg))
	binary.LittleEndian.PutUint32(b[20:], c.CurOff)
	binary.LittleEndian.PutUint32(b[24:], c.NextInum)
	binary.LittleEndian.PutUint32(b[28:], c.Region)
	binary.LittleEndian.PutUint32(b[36:], 0)
	sum := crc32.Checksum(b[:32], crcTab)
	binary.LittleEndian.PutUint32(b[36:], sum)
}

func (c *checkpoint) decode(b []byte) bool {
	sum := binary.LittleEndian.Uint32(b[36:])
	if crc32.Checksum(b[:32], crcTab) != sum || sum == 0 {
		return false
	}
	c.Serial = binary.LittleEndian.Uint64(b[0:])
	c.Time = int64(binary.LittleEndian.Uint64(b[8:]))
	c.CurSeg = addr.SegNo(binary.LittleEndian.Uint32(b[16:]))
	c.CurOff = binary.LittleEndian.Uint32(b[20:])
	c.NextInum = binary.LittleEndian.Uint32(b[24:])
	c.Region = binary.LittleEndian.Uint32(b[28:])
	return true
}

// Directory entry record format: [inum u32][type u8][nameLen u8][name]...
// A zero inum terminates a block's records. Entries do not span blocks.
type Dirent struct {
	Inum uint32
	Type FileType
	Name string
}

const direntFixed = 6

// maxNameLen is the longest name a record's length byte holds.
const maxNameLen = 255

// checkName is ErrBadName for a name no directory record can hold: one
// longer than maxNameLen, or holding NUL. Every name a namespace edit
// enters passes it first.
func checkName(name string) error {
	if len(name) > maxNameLen || strings.IndexByte(name, 0) >= 0 {
		return ErrBadName
	}
	return nil
}

// encodeDirents packs entries into whole blocks, returning the buffer
// (a multiple of BlockSize).
func encodeDirents(ents []Dirent) []byte {
	var out []byte
	blk := make([]byte, 0, BlockSize)
	flush := func() {
		b := make([]byte, BlockSize)
		copy(b, blk)
		out = append(out, b...)
		blk = blk[:0]
	}
	for _, e := range ents {
		if len(e.Name) > maxNameLen {
			panic("lfs: directory name too long")
		}
		rec := direntFixed + len(e.Name)
		// +direntFixed: leave room for the zero-inum terminator unless exactly full.
		if len(blk)+rec > BlockSize {
			flush()
		}
		var hdr [direntFixed]byte
		binary.LittleEndian.PutUint32(hdr[0:], e.Inum)
		hdr[4] = byte(e.Type)
		hdr[5] = byte(len(e.Name))
		blk = append(blk, hdr[:]...)
		blk = append(blk, e.Name...)
	}
	if len(blk) > 0 || len(out) == 0 {
		flush()
	}
	return out
}

// ErrCorruptDir reports a directory record encodeDirents never writes: one
// that runs past its block, has an empty name or one holding '/' or NUL, or
// has an unknown file type.
var ErrCorruptDir = errors.New("lfs: corrupt directory record")

// direntAt parses the record at off in directory block b and returns where
// the next one starts. inum is 0 at the end of the block's records, and at a
// record encodeDirents never writes, which is ErrCorruptDir.
func direntAt(b []byte, off int) (inum uint32, typ FileType, name []byte, next int, err error) {
	if off+direntFixed > len(b) {
		return
	}
	if inum = binary.LittleEndian.Uint32(b[off:]); inum == 0 {
		return
	}
	typ, next = FileType(b[off+4]), off+direntFixed+int(b[off+5])
	if next > len(b) || next == off+direntFixed || (typ != TypeFile && typ != TypeDir) {
		return 0, 0, nil, 0, ErrCorruptDir
	}
	if name = b[off+direntFixed : next]; bytes.ContainsAny(name, "/\x00") {
		return 0, 0, nil, 0, ErrCorruptDir
	}
	return inum, typ, name, next, nil
}

// dirBlock returns directory block blk of data.
func dirBlock(data []byte, blk int) []byte {
	return data[blk*BlockSize : min(len(data), (blk+1)*BlockSize)]
}

// decodeDirents parses the packed record format; a corrupt record is
// ErrCorruptDir, naming the block and offset.
func decodeDirents(data []byte) ([]Dirent, error) {
	var ents []Dirent
	for blk := 0; blk*BlockSize < len(data); blk++ {
		b := dirBlock(data, blk)
		for off := 0; ; {
			inum, typ, name, next, err := direntAt(b, off)
			if err != nil {
				return nil, fmt.Errorf("%w: block %d offset %d", err, blk, off)
			}
			if inum == 0 {
				break
			}
			ents = append(ents, Dirent{Inum: inum, Type: typ, Name: string(name)})
			off = next
		}
	}
	return ents, nil
}

// lookupDirent finds name in the packed records without decoding them.
func lookupDirent(data []byte, name string) (uint32, bool) {
	for blk := 0; blk*BlockSize < len(data); blk++ {
		b := dirBlock(data, blk)
		for inum, _, n, off, _ := direntAt(b, 0); inum != 0; inum, _, n, off, _ = direntAt(b, off) {
			if string(n) == name {
				return inum, true
			}
		}
	}
	return 0, false
}
