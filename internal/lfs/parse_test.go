package lfs

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// testPseg describes one partial segment for putPseg: data blocks of inode
// 7, then one inode block holding inums (none: no inode block).
type testPseg struct {
	lbns    []int32
	inums   []uint32
	inoAddr addr.BlockNo // where the summary says the inode block is; 0: where it is
	nblocks int          // NBlocks in the summary; 0: what was written
}

// putPseg writes ps at block off of raw, an image addressed in segment seg,
// sums it as the segment writer would, and returns the block after it.
func putPseg(t testing.TB, amap *addr.Map, seg addr.SegNo, raw []byte, off int, ps testPseg) int {
	t.Helper()
	n := 1 + len(ps.lbns)
	for i := range ps.lbns {
		copy(raw[(off+1+i)*BlockSize:], pattern(byte(off+i), BlockSize))
	}
	sum := &Summary{Next: seg, Create: 42, Serial: 3,
		Finfos: []Finfo{{Inum: 7, Version: 1, Lbns: ps.lbns}}}
	if len(ps.inums) > 0 {
		for slot, inum := range ps.inums {
			ino := dinode{Inum: inum, Version: 1, Type: TypeFile, Nlink: 1}
			ino.encode(raw[(off+n)*BlockSize+slot*InodeSize:])
		}
		ia := amap.BlockOf(seg, off+n)
		if ps.inoAddr != 0 {
			ia = ps.inoAddr
		}
		sum.InoAddrs = []addr.BlockNo{ia}
		n++
	}
	sum.NBlocks = uint16(n)
	if ps.nblocks != 0 {
		sum.NBlocks = uint16(ps.nblocks)
	}
	sum.DataSum = crc32Sum(raw[(off+1)*BlockSize : (off+n)*BlockSize])
	if err := encodeSummary(sum, raw[off*BlockSize:(off+1)*BlockSize]); err != nil {
		t.Fatal(err)
	}
	return off + n
}

// TestParseSegment: the one walker of the partial-segment chain, over images
// built by hand. The image is addressed in a segment other than the one its
// bytes would sit in (a cache line's copy of a tertiary segment is).
func TestParseSegment(t *testing.T) {
	const segBlocks = 16
	e := newEnv(t, segBlocks, 32, Options{MaxInodes: 64})
	fs, amap := e.fs, e.amap
	const seg = addr.SegNo(29)
	base := amap.BlockOf(seg, 0)
	first := testPseg{lbns: []int32{0, 1, 2}, inums: []uint32{7, 9}}
	firstBlocks := []BlockRef{{7, 1, 0, base + 1}, {7, 1, 1, base + 2}, {7, 1, 2, base + 3}}
	firstInodes := []InodeRef{{7, 1, base + 4, 0}, {9, 1, base + 4, 1}}

	cases := []struct {
		name    string
		build   func(raw []byte)
		offsets []int
		blocks  []BlockRef
		inodes  []InodeRef
		torn    bool
	}{
		{name: "all-zero image", build: func([]byte) {}},
		{name: "one pseg", build: func(raw []byte) { putPseg(t, amap, seg, raw, 0, first) },
			offsets: []int{0}, blocks: firstBlocks, inodes: firstInodes},
		{name: "two psegs", build: func(raw []byte) {
			off := putPseg(t, amap, seg, raw, 0, first)
			putPseg(t, amap, seg, raw, off, testPseg{lbns: []int32{-1, 5}})
		}, offsets: []int{0, 5}, blocks: append(firstBlocks[:3:3], BlockRef{7, 1, -1, base + 6}, BlockRef{7, 1, 5, base + 7}),
			inodes: firstInodes},
		{name: "second pseg with a flipped data byte", build: func(raw []byte) {
			off := putPseg(t, amap, seg, raw, 0, first)
			putPseg(t, amap, seg, raw, off, testPseg{lbns: []int32{3, 4}})
			raw[(off+2)*BlockSize+100] ^= 0x01
		}, offsets: []int{0}, blocks: firstBlocks, inodes: firstInodes, torn: true},
		{name: "NBlocks overruns the segment", build: func(raw []byte) {
			off := putPseg(t, amap, seg, raw, 0, first)
			putPseg(t, amap, seg, raw, off, testPseg{lbns: []int32{3}, nblocks: segBlocks - off + 1})
		}, offsets: []int{0}, blocks: firstBlocks, inodes: firstInodes, torn: true},
		{name: "NBlocks zero", build: func(raw []byte) {
			putPseg(t, amap, seg, raw, 0, testPseg{lbns: []int32{3}, nblocks: 1 << 16})
		}, torn: true},
		{name: "summary that does not decode ends the chain untorn", build: func(raw []byte) {
			off := putPseg(t, amap, seg, raw, 0, first)
			putPseg(t, amap, seg, raw, off, testPseg{lbns: []int32{3}})
			raw[off*BlockSize+16] ^= 0x01
		}, offsets: []int{0}, blocks: firstBlocks, inodes: firstInodes},
		{name: "inode address outside the segment", build: func(raw []byte) {
			putPseg(t, amap, seg, raw, 0, testPseg{lbns: []int32{0, 1, 2}, inums: []uint32{7, 9},
				inoAddr: amap.BlockOf(seg+1, 4)})
		}, offsets: []int{0}, blocks: firstBlocks},
		{name: "inode number the inode map cannot hold", build: func(raw []byte) {
			putPseg(t, amap, seg, raw, 0, testPseg{lbns: []int32{0, 1, 2}, inums: []uint32{64, 9, 1 << 31}})
		}, offsets: []int{0}, blocks: firstBlocks, inodes: []InodeRef{{9, 1, base + 4, 1}}},
	}
	for _, c := range cases {
		raw := make([]byte, segBlocks*BlockSize)
		c.build(raw)
		sc := fs.ParseSegment(seg, raw)
		if sc.Seg != seg || &sc.Raw[0] != &raw[0] {
			t.Errorf("%s: Seg %d, or Raw is not the image passed in", c.name, sc.Seg)
		}
		if len(sc.Psegs) != len(sc.Offsets) || !reflect.DeepEqual(sc.Offsets, c.offsets) {
			t.Errorf("%s: %d psegs at offsets %v, want %v", c.name, len(sc.Psegs), sc.Offsets, c.offsets)
		}
		if !reflect.DeepEqual(sc.Blocks, c.blocks) {
			t.Errorf("%s: blocks %v, want %v", c.name, sc.Blocks, c.blocks)
		}
		if !reflect.DeepEqual(sc.Inodes, c.inodes) {
			t.Errorf("%s: inodes %v, want %v", c.name, sc.Inodes, c.inodes)
		}
		if sc.Torn != c.torn {
			t.Errorf("%s: Torn = %v, want %v", c.name, sc.Torn, c.torn)
		}
	}
}

// readSegmentAtParent is ReadSegment's walk as it stood before ParseSegment
// took it over, kept as the reference TestReadSegmentUnchanged compares with.
func readSegmentAtParent(fs *FS, seg addr.SegNo, raw []byte) *SegmentContents {
	sc := &SegmentContents{Seg: seg, Raw: raw}
	off := 0
	for off+1 <= fs.amap.SegBlocks() {
		sum, err := decodeSummary(raw[off*BlockSize : (off+1)*BlockSize])
		if err != nil {
			break
		}
		n := int(sum.NBlocks)
		if n < 1 || off+n > fs.amap.SegBlocks() {
			break
		}
		if crc32Sum(raw[(off+1)*BlockSize:(off+n)*BlockSize]) != sum.DataSum {
			break
		}
		sc.Psegs = append(sc.Psegs, sum)
		sc.Offsets = append(sc.Offsets, off)
		base := fs.amap.BlockOf(seg, off)
		bi := 1
		for _, fi := range sum.Finfos {
			for _, lbn := range fi.Lbns {
				sc.Blocks = append(sc.Blocks, BlockRef{Inum: fi.Inum, Version: fi.Version, Lbn: lbn, Addr: base + addr.BlockNo(bi)})
				bi++
			}
		}
		for _, ia := range sum.InoAddrs {
			idx := fs.amap.OffOf(ia)
			if fs.amap.SegOf(ia) != seg || idx >= fs.amap.SegBlocks() {
				continue
			}
			blk := raw[idx*BlockSize : (idx+1)*BlockSize]
			for slot := 0; slot < InodesPerBlock; slot++ {
				var ino dinode
				ino.decode(blk[slot*InodeSize:])
				if ino.Inum != 0 {
					sc.Inodes = append(sc.Inodes, InodeRef{Inum: ino.Inum, Version: ino.Version, Addr: ia, Slot: uint32(slot)})
				}
			}
		}
		off += n
	}
	return sc
}

// TestReadSegmentUnchanged: on every segment of a log written by the file
// system (creates, overwrites, a directory, a removal, several syncs and a
// checkpoint) ReadSegment returns what it returned before the walk moved
// into ParseSegment, field for field, and none of it is torn.
func TestReadSegmentUnchanged(t *testing.T) {
	e := newEnv(t, 16, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		if err := fs.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			writeFile(t, p, fs, fmt.Sprintf("/d/f%d", i), pattern(byte(i), (3+5*i)*BlockSize))
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		f1, err := fs.Open(p, "/d/f1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f1.WriteAt(p, pattern(9, 2*BlockSize), BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(p, "/d/f3"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		psegs := 0
		for s := fs.ReservedSegs(); s < e.amap.DiskSegs(); s++ {
			seg := addr.SegNo(s)
			sc, err := fs.ReadSegment(p, seg)
			if err != nil {
				t.Fatal(err)
			}
			if want := readSegmentAtParent(fs, seg, sc.Raw); !reflect.DeepEqual(sc, want) {
				t.Errorf("segment %d: ReadSegment differs from the parent's walk:\n%+v\n%+v", s, sc, want)
			}
			psegs += len(sc.Psegs)
		}
		if psegs < 8 {
			t.Fatalf("only %d partial segments in the log: the comparison saw too little", psegs)
		}
	})
}

// resumChain makes the chain of raw checksum-consistent as far as its
// extents allow: every block reached that carries the summary magic gets the
// data checksum of the extent it claims (when that fits) and its own
// checksum. Without it no mutation gets past the checksums to the fields.
func resumChain(raw []byte, segBlocks int) {
	for off := 0; off < segBlocks; {
		b := raw[off*BlockSize : (off+1)*BlockSize]
		if binary.LittleEndian.Uint32(b) != summaryMagic {
			return
		}
		n := int(binary.LittleEndian.Uint16(b[30:]))
		fits := n >= 1 && off+n <= segBlocks
		if fits {
			binary.LittleEndian.PutUint32(b[8:], crc32Sum(raw[(off+1)*BlockSize:(off+n)*BlockSize]))
		}
		resum(b)
		if !fits {
			return
		}
		off += n
	}
}

// FuzzParseSegment: whatever the image (as given, and with its chain made
// checksum-consistent), ParseSegment does not panic or index past it, the
// partial segments it reports lie one after another inside the segment, and
// every inode it reports is one the inode map holds, found in a block of
// this segment. The input is the head of the image; the rest is zero.
func FuzzParseSegment(f *testing.F) {
	const segBlocks = 8
	const seg = addr.SegNo(11)
	e := newEnv(f, segBlocks, 16, Options{MaxInodes: 64})
	two := make([]byte, segBlocks*BlockSize)
	off := putPseg(f, e.amap, seg, two, 0, testPseg{lbns: []int32{0, 1}, inums: []uint32{7, 9}})
	putPseg(f, e.amap, seg, two, off, testPseg{lbns: []int32{-1}, inums: []uint32{63}})
	f.Add(two)
	f.Add(two[:off*BlockSize+BlockSize/2]) // cut inside the second summary
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(raw []byte) {
			sc := e.fs.ParseSegment(seg, raw)
			blocks := min(segBlocks, len(raw)/BlockSize)
			next := 0
			for i, sum := range sc.Psegs {
				if sc.Offsets[i] != next || sum.NBlocks < 1 {
					t.Fatalf("pseg %d at block %d with %d blocks, the one before ended at %d", i, sc.Offsets[i], sum.NBlocks, next)
				}
				next += int(sum.NBlocks)
			}
			if len(sc.Offsets) != len(sc.Psegs) || next > blocks {
				t.Fatalf("%d offsets for %d psegs ending at block %d of %d", len(sc.Offsets), len(sc.Psegs), next, blocks)
			}
			for _, ir := range sc.Inodes {
				if ir.Inum == 0 || int(ir.Inum) >= len(e.fs.imap) || ir.Slot >= InodesPerBlock ||
					e.amap.SegOf(ir.Addr) != seg || e.amap.OffOf(ir.Addr) >= blocks {
					t.Fatalf("inode ref %+v: not in the inode map, or not in a block of the image", ir)
				}
			}
			for _, r := range sc.Blocks {
				if r.Addr <= e.amap.BlockOf(seg, 0) {
					t.Fatalf("block ref %+v addressed before the segment's first data block", r)
				}
			}
		}
		check(b) // short, long and unaligned images, as the fuzzer makes them
		raw := make([]byte, segBlocks*BlockSize)
		copy(raw, b)
		check(raw)
		resumChain(raw, segBlocks)
		check(raw)
	})
}
