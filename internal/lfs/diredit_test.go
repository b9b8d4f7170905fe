package lfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// encodeDirents is the reference model of a directory image: the entries
// packed in order into whole blocks, each record into the current block
// when it fits and into a fresh one when it does not. Decoding an image,
// editing the list and encoding it again is what every namespace edit did
// before edits changed the packed records in place; the tests below hold
// dirAppend and dirDelete to its bytes.
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

// decodeDirents is the reference model's decoder: the entries of a
// directory image, by the same parser (eachDirent) as the file system's.
func decodeDirents(data []byte) ([]Dirent, error) {
	var ents []Dirent
	if err := eachDirent(data, func(_ int, inum uint32, typ FileType, name []byte) {
		ents = append(ents, Dirent{Inum: inum, Type: typ, Name: string(name)})
	}); err != nil {
		return nil, err
	}
	return ents, nil
}

func findEnt(ents []Dirent, name string) (Dirent, bool) {
	for _, e := range ents {
		if e.Name == name {
			return e, true
		}
	}
	return Dirent{}, false
}

// dirModel is a directory as the reference model edits it: a list of
// entries, with a seeded supply of names. Among the names are 255-byte ones
// and ones whose record would end exactly on, or cross by a few bytes, the
// end of the block the next record goes into.
type dirModel struct {
	rng  *rand.Rand
	ents []Dirent
	seq  int
}

func (m *dirModel) newName() string {
	m.seq++
	nl := 8 + m.rng.Intn(40)
	img, used := encodeDirents(m.ents), 0 // used: bytes of records in the last block
	eachDirent(img, func(at int, _ uint32, _ FileType, n []byte) {
		if at >= len(img)-BlockSize {
			used = at%BlockSize + direntFixed + len(n)
		}
	})
	room := BlockSize - used - direntFixed // name bytes that fill the last block
	switch m.rng.Intn(6) {
	case 0:
		nl = 255
	case 1, 2: // end on the block's last byte, or straddle it by up to 3
		if n := room + m.rng.Intn(4); n >= 8 && n <= 255 {
			nl = n
		}
	}
	return fmt.Sprintf("%06d", m.seq) + strings.Repeat("n", nl-6)
}

// step changes the model by a seeded create (half the steps), remove, or
// rename within the directory, and returns the edit for the file system: op
// and its names.
func (m *dirModel) step() (op, name, to string) {
	if len(m.ents) == 0 || m.rng.Intn(2) == 0 {
		name = m.newName()
		m.ents = append(m.ents, Dirent{Inum: uint32(1000 + m.seq), Type: TypeFile, Name: name})
		return "create", name, ""
	}
	i := m.rng.Intn(len(m.ents))
	e := m.ents[i]
	m.ents = slices.Delete(m.ents, i, i+1)
	if m.rng.Intn(3) == 0 {
		to = m.newName()
		m.ents = append(m.ents, Dirent{Inum: e.Inum, Type: e.Type, Name: to})
		return "rename", e.Name, to
	}
	return "remove", e.Name, ""
}

// TestPackedEditsMatchReencode: over seeded creates, removes and renames,
// the image dirAppend and dirDelete leave is at every step the bytes the
// reference model encodes, and so is an image built by appending a list's
// records one by one (a namespace repair's rewrite).
func TestPackedEditsMatchReencode(t *testing.T) {
	m := &dirModel{rng: rand.New(rand.NewSource(45))}
	img := encodeDirents(nil)
	crossed, blocks := false, 0
	for step := 0; step < 1200; step++ {
		before := len(img)
		op, name, to := m.step()
		at := -1
		if op != "create" {
			if err := eachDirent(img, func(off int, _ uint32, _ FileType, n []byte) {
				if string(n) == name {
					at = off
				}
			}); err != nil || at < 0 {
				t.Fatalf("step %d: %s of %q: record at %d, %v", step, op, name, at, err)
			}
			img = dirDelete(img, at)
		}
		if op == "create" {
			img = dirAppend(img, uint32(1000+m.seq), TypeFile, name)
		}
		if op == "rename" {
			e, _ := findEnt(m.ents, to)
			img = dirAppend(img, e.Inum, e.Type, to)
		}
		if want := encodeDirents(m.ents); !bytes.Equal(img, want) {
			t.Fatalf("step %d: %s %q %q: image of %d bytes differs from the %d-byte reference", step, op, name, to, len(img), len(want))
		}
		crossed = crossed || op != "create" && len(img) < before
		blocks = max(blocks, len(img)/BlockSize)
		built := make([]byte, BlockSize)
		for _, e := range m.ents {
			built = dirAppend(built, e.Inum, e.Type, e.Name)
		}
		if !bytes.Equal(built, img) {
			t.Fatalf("step %d: the image built record by record differs from the edited one", step)
		}
	}
	t.Logf("largest image %d blocks", blocks)
	if !crossed || blocks < 3 {
		t.Fatalf("no edit moved records back across a block end (%v) or the directory stayed under 3 blocks (%d)", crossed, blocks)
	}
}

// TestNamespaceEditsMatchReencode: seeded Create, Remove and Rename calls
// (within /a, and between /a and /b) leave each directory's image the
// bytes the reference model encodes from its entries, at every step.
func TestNamespaceEditsMatchReencode(t *testing.T) {
	env := newEnv(t, 64, 128, Options{BufferBytes: 256 * BlockSize})
	rng := rand.New(rand.NewSource(1993))
	env.run(t, func(p *sim.Proc) {
		fs := env.fs
		dirs := map[string]*dirModel{"/a": {rng: rng}, "/b": {rng: rng}}
		for d := range dirs {
			if err := fs.Mkdir(p, d); err != nil {
				t.Fatal(err)
			}
		}
		image := func(d string) []byte {
			fs.lock.Acquire(p)
			defer fs.lock.Release(p)
			inum, err := fs.resolveLocked(p, d)
			if err != nil {
				t.Fatal(err)
			}
			ino, _ := fs.iget(p, inum)
			var buf []byte
			data, err := fs.readDirImage(p, ino, &buf)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		inums := map[string]uint32{} // path -> inode, to give the model the file system's numbers
		blocks := 0
		for step := 0; step < 1500; step++ {
			src := []string{"/a", "/b"}[rng.Intn(3)/2] // two edits of /a to one of /b
			m := dirs[src]
			op, name, to := m.step()
			var err error
			switch op {
			case "create":
				var f *File
				if f, err = fs.Create(p, src+"/"+name); err == nil {
					inums[src+"/"+name] = f.inum
				}
			case "remove":
				err = fs.Remove(p, src+"/"+name)
			case "rename":
				dst := src
				if rng.Intn(2) == 0 { // to the other directory instead
					dst = map[string]string{"/a": "/b", "/b": "/a"}[src]
					moved := m.ents[len(m.ents)-1]
					m.ents = m.ents[:len(m.ents)-1]
					dirs[dst].ents = append(dirs[dst].ents, moved)
				}
				err = fs.Rename(p, src+"/"+name, dst+"/"+to)
				inums[dst+"/"+to] = inums[src+"/"+name]
			}
			if err != nil {
				t.Fatalf("step %d: %s %s/%q: %v", step, op, src, name, err)
			}
			for d, dm := range dirs {
				for i := range dm.ents {
					dm.ents[i].Inum = inums[d+"/"+dm.ents[i].Name]
				}
				got, want := image(d), encodeDirents(dm.ents)
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: %s %q -> %q: %s is %d bytes unlike the %d-byte reference", step, op, name, to, d, len(got), len(want))
				}
				blocks = max(blocks, len(got)/BlockSize)
			}
		}
		if blocks < 3 {
			t.Errorf("the directories stayed under 3 blocks (%d)", blocks)
		}
	})
}

// TestDirEditAllocations: creating and removing a file allocates the same,
// in count and in bytes, in a directory of 20 entries as in one of 200: an
// edit changes the packed records in the lock's scratch and decodes no list
// of names.
func TestDirEditAllocations(t *testing.T) {
	env := allocEnv(t, 256, 64, Options{BufferBytes: 4 << 20})
	env.run(t, func(p *sim.Proc) {
		fs := env.fs
		var allocs [2]float64
		var bytes [2]uint64
		for i, n := range []int{20, 200} {
			dir := fmt.Sprintf("/d%d", n)
			if err := fs.Mkdir(p, dir); err != nil {
				t.Fatal(err)
			}
			for j := range n {
				if _, err := fs.Create(p, fmt.Sprintf("%s/file-%04d-%s", dir, j, strings.Repeat("x", 30))); err != nil {
					t.Fatal(err) // 46-byte records: 200 of them fill three blocks
				}
			}
			path := dir + "/new"
			op := func() {
				if _, err := fs.Create(p, path); err != nil {
					t.Fatal(err)
				}
				if err := fs.Remove(p, path); err != nil {
					t.Fatal(err)
				}
			}
			allocs[i], bytes[i] = testing.AllocsPerRun(20, op), steadyStateAlloc(nil, op)
		}
		t.Logf("Create and Remove: %v allocations (%d bytes) in 20 entries, %v (%d bytes) in 200", allocs[0], bytes[0], allocs[1], bytes[1])
		if allocs[1] != allocs[0] || bytes[1] != bytes[0] {
			t.Errorf("Create and Remove allocate %v times, %d bytes, in a directory of 200 entries, %v times, %d bytes, in one of 20: want the same",
				allocs[1], bytes[1], allocs[0], bytes[0])
		}
	})
}

// BenchmarkCreateRemove200 is a Create and a Remove of one file in a
// directory of 200 entries.
func BenchmarkCreateRemove200(b *testing.B) {
	k, fs := benchFS(b)
	b.ReportAllocs()
	k.RunProc(func(p *sim.Proc) {
		for j := range 200 {
			if _, err := fs.Create(p, fmt.Sprintf("/file-%04d", j)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Create(p, "/new"); err != nil {
				b.Fatal(err)
			}
			if err := fs.Remove(p, "/new"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
