package lfs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// seededDir returns n entries with distinct names of seeded lengths, among
// them 255-byte names (the longest a record holds) and names sized so that
// their record ends exactly on a block boundary.
func seededDir(rng *rand.Rand, n int) []Dirent {
	ents := make([]Dirent, 0, n)
	used := 0 // bytes of the current block
	for i := 0; i < n; i++ {
		nl := 5 + rng.Intn(40)
		if room := BlockSize - used - direntFixed; i%50 == 7 {
			nl = 255
		} else if i%3 == 0 && room >= 5 && room <= 255 {
			nl = room
		}
		if used+direntFixed+nl > BlockSize {
			used = 0
		}
		used += direntFixed + nl
		name := fmt.Sprintf("%04d", i) + strings.Repeat("x", nl-4)
		ents = append(ents, Dirent{Inum: uint32(100 + i), Type: TypeFile, Name: name})
	}
	return ents
}

// TestLookupAgreesWithDecode: a lookup as resolveLocked makes it (the
// directory read into the lock's scratch, lookupDirent over the records)
// finds what decoding the whole directory and searching the entries finds,
// for present and absent names, and allocates nothing doing it.
func TestLookupAgreesWithDecode(t *testing.T) {
	env := newEnv(t, 64, 64, Options{BufferBytes: 256 * BlockSize})
	rng := rand.New(rand.NewSource(21))
	env.run(t, func(p *sim.Proc) {
		fs := env.fs
		if err := fs.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		fs.lock.Acquire(p)
		defer fs.lock.Release(p)
		dinum, err := fs.resolveLocked(p, "/d")
		if err != nil {
			t.Fatal(err)
		}
		dir, err := fs.iget(p, dinum)
		if err != nil {
			t.Fatal(err)
		}
		lookup := func(name string) (uint32, bool, error) {
			data, err := fs.readDirImage(p, dir, &fs.dirImage)
			inum, ok := lookupDirent(data, name)
			return inum, ok, err
		}
		boundary := false
		for _, n := range []int{1, 2, 3, 17, 100, 101, 333, 600} {
			ents := seededDir(rng, n)
			if err := fs.writeDirLocked(p, dir, encodeDirents(ents)); err != nil {
				t.Fatal(err)
			}
			image := encodeDirents(ents)
			for blk := 1; blk*BlockSize <= len(image); blk++ {
				// A block filled to its last byte has no zero terminator.
				boundary = boundary || image[blk*BlockSize-1] != 0
			}
			decoded, err := fs.readDirLocked(p, dir)
			if err != nil || len(decoded) != n {
				t.Fatalf("%d entries: decoded %d, %v", n, len(decoded), err)
			}
			probes := []string{"", "absent", strings.Repeat("x", 255), ents[n-1].Name + "x", ents[0].Name[:4]}
			for _, e := range ents {
				probes = append(probes, e.Name)
			}
			for _, name := range probes {
				want, wantOK := findEnt(decoded, name)
				got, ok, err := lookup(name)
				if err != nil || ok != wantOK || got != want.Inum {
					t.Fatalf("%d entries, %q: lookup %d %v %v, decode %d %v", n, name, got, ok, err, want.Inum, wantOK)
				}
			}
			last := ents[n-1].Name
			if a := testing.AllocsPerRun(20, func() { lookup(last) }); a != 0 {
				t.Errorf("%d entries: a lookup allocates %v times per call, want 0", n, a)
			}
		}
		if !boundary {
			t.Error("no seeded directory filled a block to its last byte")
		}
	})
}
