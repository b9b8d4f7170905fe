package lfs

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// threeEntries is alpha, beta and gamma, the directory of the corrupt-record
// tests, and its encoding.
func threeEntries() ([]Dirent, []byte) {
	ents := []Dirent{{Inum: 5, Type: TypeFile, Name: "alpha"}, {Inum: 6, Type: TypeFile, Name: "beta"}, {Inum: 7, Type: TypeDir, Name: "gamma"}}
	return ents, encodeDirents(ents)
}

// TestCorruptDirentIsAnError: each kind of record encodeDirents never writes
// is ErrCorruptDir, not entries read out of the bytes that follow. The first
// case is a name length cut from 5 to 2, which used to decode alpha, beta and
// gamma as three entries with garbage inums and names.
func TestCorruptDirentIsAnError(t *testing.T) {
	_, good := threeEntries()
	gamma := direntFixed + 5 + direntFixed + 4 // offset of the third record
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	// Fifteen 255-byte names and a 170-byte one fill a block to 5 bytes
	// short of its end; the last record's length then reaches past it.
	var full []Dirent
	for i := range 16 {
		full = append(full, Dirent{Inum: uint32(i + 1), Type: TypeFile, Name: strings.Repeat("x", 255)})
	}
	full[15].Name = full[15].Name[:170]
	past := encodeDirents(full)
	past[15*(direntFixed+255)+5] = 200
	for name, data := range map[string][]byte{
		"name length cut":     edit(func(b []byte) { b[5] = 2 }),
		"runs past its block": past,
		"empty name":          edit(func(b []byte) { b[direntFixed+5+5] = 0 }),
		"slash in the name":   edit(func(b []byte) { b[gamma+direntFixed+2] = '/' }),
		"NUL in the name":     edit(func(b []byte) { b[direntFixed+1] = 0 }),
		"unknown file type":   edit(func(b []byte) { b[gamma+4] = 3 }),
		"free file type":      edit(func(b []byte) { b[4] = byte(TypeFree) }),
		"in the second block": append(bytes.Clone(good), edit(func(b []byte) { b[gamma+4] = 3 })...),
	} {
		if ents, err := decodeDirents(data); !errors.Is(err, ErrCorruptDir) {
			t.Errorf("%s: decoded %v, error %v; want ErrCorruptDir", name, ents, err)
		}
	}
	if len(past) != BlockSize {
		t.Fatalf("the full directory is %d bytes, want one block", len(past))
	}
}

// TestCorruptDirectoryIsNotWrittenBack: a directory whose first record is
// corrupt on the media fails ReadDir and the next edit with ErrCorruptDir,
// and that edit writes nothing back over it.
func TestCorruptDirectoryIsNotWrittenBack(t *testing.T) {
	env := newEnv(t, 64, 64, Options{BufferBytes: 256 * BlockSize})
	env.run(t, func(p *sim.Proc) {
		fs := env.fs
		if err := fs.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"alpha", "beta", "gamma"} {
			if _, err := fs.Create(p, "/d/"+name); err != nil {
				t.Fatal(err)
			}
		}
		raw := func() []byte {
			fs.lock.Acquire(p)
			defer fs.lock.Release(p)
			inum, err := fs.resolveLocked(p, "/d")
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, BlockSize)
			if _, err := fs.readAtLocked(p, inum, b, 0); err != nil {
				t.Fatal(err)
			}
			if b[5] == 5 {
				b[5] = 2 // alpha's name length
				if _, err := fs.writeAtLocked(p, inum, b, 0); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}
		corrupt := raw()
		if _, err := fs.ReadDir(p, "/d"); !errors.Is(err, ErrCorruptDir) {
			t.Fatalf("ReadDir of the corrupt directory: %v, want ErrCorruptDir", err)
		}
		if _, err := fs.Create(p, "/d/delta"); !errors.Is(err, ErrCorruptDir) {
			t.Fatalf("Create in the corrupt directory: %v, want ErrCorruptDir", err)
		}
		if !bytes.Equal(raw(), corrupt) {
			t.Fatal("the failed edit wrote the directory back")
		}
	})
}

// FuzzDecodeDirents: whatever a directory holds, decodeDirents does not
// panic, and the entries it accepts encode to a directory that decodes to the
// same entries.
func FuzzDecodeDirents(f *testing.F) {
	_, good := threeEntries()
	f.Add(good[:64])
	f.Add(encodeDirents(nil))
	f.Add(encodeDirents(seededDir(rand.New(rand.NewSource(1)), 40)))
	f.Fuzz(func(t *testing.T, in []byte) {
		ents, err := decodeDirents(in)
		if err != nil {
			if !errors.Is(err, ErrCorruptDir) {
				t.Fatalf("error %v is not ErrCorruptDir", err)
			}
			return
		}
		again, err := decodeDirents(encodeDirents(ents))
		if err != nil || !slices.Equal(again, ents) {
			t.Fatalf("decoded %v, re-encoded and decoded %v (%v)", ents, again, err)
		}
	})
}

// TestBadNameIsRefused: a name a directory record cannot hold (256 bytes,
// which the length byte would store as 0; 5,000 bytes, past a block; one
// holding NUL) is ErrBadName from Create, Mkdir and a Rename onto it, and
// the directory still reads back as it was.
func TestBadNameIsRefused(t *testing.T) {
	env := newEnv(t, 64, 64, Options{BufferBytes: 256 * BlockSize})
	env.run(t, func(p *sim.Proc) {
		fs := env.fs
		if err := fs.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create(p, "/d/alpha"); err != nil {
			t.Fatal(err)
		}
		longest := strings.Repeat("n", 255)
		if _, err := fs.Create(p, "/d/"+longest); err != nil {
			t.Fatalf("a 255-byte name: %v", err)
		}
		for _, bad := range []string{strings.Repeat("x", 256), strings.Repeat("y", 5000), "a\x00b"} {
			path := "/d/" + bad
			if _, err := fs.Create(p, path); !errors.Is(err, ErrBadName) {
				t.Errorf("Create of a %d-byte name: %v, want ErrBadName", len(bad), err)
			}
			if err := fs.Mkdir(p, path); !errors.Is(err, ErrBadName) {
				t.Errorf("Mkdir of a %d-byte name: %v, want ErrBadName", len(bad), err)
			}
			if err := fs.Rename(p, "/d/alpha", path); !errors.Is(err, ErrBadName) {
				t.Errorf("Rename onto a %d-byte name: %v, want ErrBadName", len(bad), err)
			}
		}
		ents, err := fs.ReadDir(p, "/d")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		if !slices.Equal(names, []string{"alpha", longest}) {
			t.Fatalf("the directory reads back as %q", names)
		}
	})
}

// FuzzDirentRoundTrip: the names lfs accepts (the components nextName
// yields that pass checkName) encode to records that decode to the same
// entries, and encoding never panics.
func FuzzDirentRoundTrip(f *testing.F) {
	var names []string
	for _, e := range seededDir(rand.New(rand.NewSource(1)), 40) {
		names = append(names, e.Name)
	}
	f.Add(strings.Join(names, "/"), uint64(0x5a5a))
	f.Add("alpha/beta/./gamma//"+strings.Repeat("x", 255)+"/"+strings.Repeat("y", 256)+"/a\x00b", uint64(3))
	f.Fuzz(func(t *testing.T, path string, dirs uint64) {
		var ents []Dirent
		i := -1
		for name, rest := nextName(path); name != ""; name, rest = nextName(rest) {
			if i++; checkName(name) != nil {
				continue
			}
			typ := TypeFile
			if dirs>>(i%64)&1 == 1 {
				typ = TypeDir
			}
			ents = append(ents, Dirent{Inum: uint32(i + 1), Type: typ, Name: name})
		}
		got, err := decodeDirents(encodeDirents(ents))
		if err != nil || !slices.Equal(got, ents) {
			t.Fatalf("encoded %q, decoded %q (%v)", ents, got, err)
		}
	})
}
