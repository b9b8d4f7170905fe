package lfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// TestSummaryLayout verifies the Table 1 partial-segment summary block:
// encode/decode round trip over randomized contents.
func TestSummaryLayout(t *testing.T) {
	f := func(next uint32, create int64, serial uint64, flags uint16, nf uint8, lbnSeed int64) bool {
		s := &Summary{
			Next:   addr.SegNo(next),
			Create: create,
			Serial: serial,
			Flags:  flags,
		}
		rng := rand.New(rand.NewSource(lbnSeed))
		nfiles := int(nf%8) + 1
		blocks := 0
		for i := 0; i < nfiles; i++ {
			fi := Finfo{Inum: rng.Uint32()%1000 + 1, Version: rng.Uint32() % 100}
			n := rng.Intn(12) + 1
			for j := 0; j < n; j++ {
				fi.Lbns = append(fi.Lbns, int32(rng.Intn(4000)-10))
				blocks++
			}
			s.Finfos = append(s.Finfos, fi)
		}
		nino := rng.Intn(3)
		for i := 0; i < nino; i++ {
			s.InoAddrs = append(s.InoAddrs, addr.BlockNo(rng.Uint32()))
			blocks++
		}
		s.NBlocks = uint16(1 + blocks)
		buf := make([]byte, BlockSize)
		if err := encodeSummary(s, buf); err != nil {
			return false
		}
		got, err := decodeSummary(buf)
		if err != nil {
			return false
		}
		return got.Next == s.Next && got.Create == s.Create && got.Serial == s.Serial &&
			got.Flags == s.Flags && got.NBlocks == s.NBlocks &&
			reflect.DeepEqual(got.Finfos, s.Finfos) &&
			reflect.DeepEqual(got.InoAddrs, s.InoAddrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryRejectsCorruption(t *testing.T) {
	s := &Summary{Next: 7, Create: 123, Serial: 9, NBlocks: 3,
		Finfos: []Finfo{{Inum: 5, Version: 1, Lbns: []int32{0, 1}}}}
	buf := make([]byte, BlockSize)
	if err := encodeSummary(s, buf); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 4, 12, 20, 40} {
		c := make([]byte, BlockSize)
		copy(c, buf)
		c[off] ^= 0xFF
		if _, err := decodeSummary(c); err == nil {
			t.Errorf("corruption at byte %d accepted", off)
		}
	}
}

func TestSummaryOverflowDetected(t *testing.T) {
	s := &Summary{}
	// More FINFO entries than a 4 KB block can hold.
	for i := 0; i < 400; i++ {
		s.Finfos = append(s.Finfos, Finfo{Inum: uint32(i + 1), Lbns: []int32{0, 1, 2}})
	}
	buf := make([]byte, BlockSize)
	if err := encodeSummary(s, buf); err == nil {
		t.Fatal("overflowing summary encoded without error")
	}
}

// resum stores the checksum decodeSummary expects of b, as the writer of a
// block with these contents would have.
func resum(b []byte) {
	if len(b) >= 8 {
		binary.LittleEndian.PutUint32(b[4:], 0)
		binary.LittleEndian.PutUint32(b[4:], crc32Sum(b))
	}
}

// TestSummaryRejectsBadCounts: a block shorter than the header, and a
// block whose checksum is right but whose counts run past its end, decode
// to ErrBadSummary: a decoder that trusts the counts indexes past the block
// and panics its callers (roll-forward, the cleaners, fsck).
func TestSummaryRejectsBadCounts(t *testing.T) {
	s := &Summary{Next: 7, Create: 123, Serial: 9, NBlocks: 4, InoAddrs: []addr.BlockNo{99},
		Finfos: []Finfo{{Inum: 5, Version: 1, Lbns: []int32{0, 1}}}}
	valid := make([]byte, BlockSize)
	if err := encodeSummary(s, valid); err != nil {
		t.Fatal(err)
	}
	lenAt := summaryHeader + 4*len(s.InoAddrs) + 8
	cases := map[string]func(b []byte) []byte{
		"empty":            func(b []byte) []byte { return b[:0] },
		"short of header":  func(b []byte) []byte { return b[:summaryHeader-1] },
		"cut in the lists": func(b []byte) []byte { return b[:lenAt+6] },
		"ninos 65535":      func(b []byte) []byte { binary.LittleEndian.PutUint16(b[26:], 0xFFFF); return b },
		"nfinfo 65535":     func(b []byte) []byte { binary.LittleEndian.PutUint16(b[24:], 0xFFFF); return b },
		"finfo of 2^32-1":  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[lenAt:], 0xFFFFFFFF); return b },
		"finfo past the end": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[lenAt:], uint32(BlockSize-lenAt)/4)
			return b
		},
	}
	for name, mutate := range cases {
		b := mutate(bytes.Clone(valid))
		resum(b)
		if _, err := decodeSummary(b); !errors.Is(err, ErrBadSummary) {
			t.Errorf("%s: error %v, want ErrBadSummary", name, err)
		}
	}
}

// FuzzDecodeSummary: whatever the block, decodeSummary does not panic, and a
// block it accepts encodes again (into as many bytes) to a block that
// decodes to the same summary. The block is tried as given and with its
// checksum recomputed, without which no mutation would get past the
// checksum to the count fields.
func FuzzDecodeSummary(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := decodeSummary(b); err != nil && len(b) < summaryHeader && !errors.Is(err, ErrBadSummary) {
			t.Fatalf("%d-byte block: error %v is not ErrBadSummary", len(b), err)
		}
		resum(b)
		s, err := decodeSummary(b)
		if err != nil {
			if !errors.Is(err, ErrBadSummary) && binary.LittleEndian.Uint32(b) == summaryMagic {
				t.Fatalf("checksummed block with the magic: error %v is not ErrBadSummary", err)
			}
			return
		}
		again := make([]byte, len(b))
		if err := encodeSummary(s, again); err != nil {
			t.Fatalf("encoding an accepted summary: %v", err)
		}
		s2, err := decodeSummary(again)
		if err != nil {
			t.Fatalf("decoding it again: %v", err)
		}
		s.SumSum = s2.SumSum // bytes after the lists are not part of a Summary
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the summary:\n%+v\n%+v", s, s2)
		}
	})
}

// TestInodeLayout round-trips randomized inodes through the 128-byte
// on-media format.
func TestInodeLayout(t *testing.T) {
	f := func(inum, version, nlink uint32, size uint64, mtime, ctime int64, typ uint8, ptrSeed int64) bool {
		ino := &dinode{
			Inum:    inum,
			Version: version,
			Type:    FileType(typ % 3),
			Nlink:   nlink,
			Size:    size,
			Mtime:   mtime,
			Ctime:   ctime,
		}
		rng := rand.New(rand.NewSource(ptrSeed))
		for i := range ino.Direct {
			ino.Direct[i] = addr.BlockNo(rng.Uint32())
		}
		ino.Single = addr.BlockNo(rng.Uint32())
		ino.Double = addr.BlockNo(rng.Uint32())
		buf := make([]byte, InodeSize)
		ino.encode(buf)
		var got dinode
		got.decode(buf)
		return reflect.DeepEqual(*ino, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSeguseAndImapLayout round-trips the ifile entry formats.
func TestSeguseAndImapLayout(t *testing.T) {
	fSeg := func(flags, live, tag, avail uint32, mod int64) bool {
		s := Seguse{Flags: flags, LiveBytes: live, LastMod: mod, CacheTag: tag, Avail: avail}
		buf := make([]byte, seguseSize)
		s.encode(buf)
		var got Seguse
		got.decode(buf)
		return got == s
	}
	if err := quick.Check(fSeg, nil); err != nil {
		t.Fatal(err)
	}
	fImap := func(a, slot, version uint32, atime int64) bool {
		e := ImapEntry{Addr: addr.BlockNo(a), Slot: slot, Version: version, Atime: atime}
		buf := make([]byte, imapSize)
		e.encode(buf)
		var got ImapEntry
		got.decode(buf)
		return got == e
	}
	if err := quick.Check(fImap, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDirentLayout round-trips randomized directory entry lists.
func TestDirentLayout(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var ents []Dirent
		for i := 0; i < int(n%40); i++ {
			nameLen := rng.Intn(60) + 1
			name := make([]byte, nameLen)
			for j := range name {
				name[j] = byte('a' + rng.Intn(26))
			}
			ents = append(ents, Dirent{
				Inum: rng.Uint32()%100000 + 1,
				Type: FileType(rng.Intn(2) + 1),
				Name: string(name),
			})
		}
		data := encodeDirents(ents)
		if len(data)%BlockSize != 0 {
			return false
		}
		got, err := decodeDirents(data)
		if err != nil {
			return false
		}
		if len(ents) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(ents, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSuperblockLayout(t *testing.T) {
	sb := Superblock{
		Magic:        superMagic,
		SegBlocks:    256,
		DiskSegs:     848,
		ReservedSegs: 2,
		MaxInodes:    4096,
		CacheSegs:    96,
		TableBlocks:  77,
		TertDevs:     []addr.Geom{{Vols: 32, SegsPerVol: 40}, {Vols: 2, SegsPerVol: 10}},
	}
	buf := make([]byte, BlockSize)
	sb.encode(buf)
	var got Superblock
	if err := got.decode(buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sb, got) {
		t.Fatalf("superblock round trip: %+v != %+v", got, sb)
	}
	// A device count past what the block holds.
	binary.LittleEndian.PutUint32(buf[28:], (BlockSize-32)/8+1)
	if err := got.decode(buf); err == nil {
		t.Fatal("device count past the block accepted")
	}
	// Corrupt magic.
	buf[0] ^= 1
	if err := got.decode(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// FuzzSuperblockDecode: whatever block 0 holds, decode does not panic, and a
// superblock it accepts encodes to a block that decodes the same. The input
// is the head of the block; the rest is zero, as Mount reads a whole block.
func FuzzSuperblockDecode(f *testing.F) {
	valid := make([]byte, BlockSize)
	sb := Superblock{SegBlocks: 256, DiskSegs: 848, ReservedSegs: 2, MaxInodes: 4096, CacheSegs: 96, TableBlocks: 77,
		TertDevs: []addr.Geom{{Vols: 32, SegsPerVol: 40}}}
	sb.encode(valid)
	overrun := bytes.Clone(valid[:48])
	binary.LittleEndian.PutUint32(overrun[28:], 0xFFFFFFFF)
	f.Add(valid[:48])
	f.Add(overrun)
	f.Fuzz(func(t *testing.T, in []byte) {
		b := make([]byte, BlockSize)
		copy(b, in)
		var got, again Superblock
		if got.decode(b) != nil {
			return
		}
		clear(b)
		got.encode(b)
		if err := again.decode(b); err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip: %+v, then %+v (%v)", got, again, err)
		}
	})
}

// FuzzCheckpointDecode: whatever a checkpoint block holds, decode does not
// panic, and a checkpoint it accepts encodes to a block that decodes the
// same. The block (the input, then zeroes) is tried as given and with its
// checksum recomputed, without which no mutation gets past the checksum.
func FuzzCheckpointDecode(f *testing.F) {
	valid := make([]byte, BlockSize)
	(&checkpoint{Serial: 42, Time: 1e12, CurSeg: 17, CurOff: 300, NextInum: 99, Region: 1}).encode(valid)
	f.Add(valid[:40])
	f.Fuzz(func(t *testing.T, in []byte) {
		b := make([]byte, BlockSize)
		copy(b, in)
		for _, resum := range []bool{false, true} {
			if resum {
				binary.LittleEndian.PutUint32(b[36:], crc32.Checksum(b[:32], crcTab))
			}
			var got, again checkpoint
			if !got.decode(b) {
				continue
			}
			blk := make([]byte, BlockSize)
			got.encode(blk)
			if !again.decode(blk) || again != got {
				t.Fatalf("round trip: %+v, then %+v", got, again)
			}
		}
	})
}

func TestCheckpointLayout(t *testing.T) {
	c := checkpoint{Serial: 42, Time: 1e12, CurSeg: 17, CurOff: 300, NextInum: 99, Region: 1}
	buf := make([]byte, BlockSize)
	c.encode(buf)
	var got checkpoint
	if !got.decode(buf) {
		t.Fatal("valid checkpoint rejected")
	}
	if got != c {
		t.Fatalf("round trip: %+v != %+v", got, c)
	}
	buf[3] ^= 0x80
	if got.decode(buf) {
		t.Fatal("corrupted checkpoint accepted")
	}
	// All-zero block (never written) must be invalid.
	zero := make([]byte, BlockSize)
	if got.decode(zero) {
		t.Fatal("zero checkpoint accepted")
	}
}

func TestDirentsDoNotSpanBlocks(t *testing.T) {
	// Entries with names sized to land near block boundaries never split
	// across blocks.
	var ents []Dirent
	for i := 0; i < 200; i++ {
		ents = append(ents, Dirent{Inum: uint32(i + 1), Type: TypeFile, Name: string(bytes.Repeat([]byte{'x'}, 60))})
	}
	data := encodeDirents(ents)
	got, err := decodeDirents(data)
	if err != nil || !reflect.DeepEqual(ents, got) {
		t.Fatal("boundary-heavy dirent round trip failed")
	}
}

// TestCorruptImapSlotIsAnError: a checkpointed inode-map entry whose slot
// lies past the end of its inode block makes opening the file fail with
// ErrBadInode after a remount; it used to slice past the block and panic.
func TestCorruptImapSlotIsAnError(t *testing.T) {
	k := sim.NewKernel()
	amap := addr.New(32, 64)
	disk := dev.NewDisk(k, dev.RZ57, int64(64*32), nil)
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, DiskDevice{disk}, amap, Options{MaxInodes: 128})
		if err != nil {
			t.Fatal(err)
		}
		inum := writeFile(t, p, fs, "/f", pattern(1, BlockSize)).Inum()
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		fs.imap[inum].Slot = 40
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	k.RunProc(func(p *sim.Proc) {
		fs, err := Mount(p, DiskDevice{disk}, amap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/f"); !errors.Is(err, ErrBadInode) {
			t.Fatalf("opening a file whose inode-map slot is 40: %v, want ErrBadInode", err)
		}
	})
}

// FuzzInodeDecode: whatever an inode-map entry and the inode block it points
// at hold, inodeAt returns an inode or ErrBadInode and does not panic; an
// inode it accepts is inum's and encodes to a slot that decodes the same, and
// every entry encodes to bytes that decode the same.
func FuzzInodeDecode(f *testing.F) {
	ent, blk := make([]byte, imapSize), make([]byte, BlockSize)
	(&ImapEntry{Addr: 700, Slot: 3, Version: 2, Atime: 5e9}).encode(ent)
	(&dinode{Inum: 9, Version: 2, Type: TypeFile, Nlink: 1, Size: 12345, Single: 800}).encode(blk[3*InodeSize:])
	f.Add(ent, blk[:4*InodeSize], uint32(9))
	past := bytes.Clone(ent)
	binary.LittleEndian.PutUint32(past[4:], 40)
	f.Add(past, blk[:4*InodeSize], uint32(9))
	f.Fuzz(func(t *testing.T, entry, block []byte, inum uint32) {
		var e, again ImapEntry
		b := make([]byte, BlockSize)
		copy(b, entry)
		e.decode(b)
		clear(b)
		e.encode(b)
		if again.decode(b); again != e {
			t.Fatalf("imap entry round trip: %+v, then %+v", e, again)
		}
		clear(b)
		copy(b, block)
		ino, err := inodeAt(b, e, inum)
		if err != nil {
			if !errors.Is(err, ErrBadInode) {
				t.Fatalf("error %v is not ErrBadInode", err)
			}
			return
		}
		if ino.Inum != inum {
			t.Fatalf("accepted inode %d for inum %d", ino.Inum, inum)
		}
		clear(b)
		ino.encode(b[int(e.Slot)*InodeSize:])
		if got, err := inodeAt(b, e, inum); err != nil || *got != *ino {
			t.Fatalf("inode round trip: %+v, then %+v (%v)", *ino, got, err)
		}
	})
}
