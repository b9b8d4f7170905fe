package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestTwoMigrateFilesCallersAtOnce: the migrator daemon is not the only caller
// of MigrateFiles (the tertiary cleaner, direct calls).
// Two at once share one staging segment, and the second must not stage at the
// offset the first is writing.
func TestTwoMigrateFilesCallersAtOnce(t *testing.T) {
	env := newHL(t, 64, 8, 4, 16)
	defer env.k.Stop()
	env.run(t, func(p *sim.Proc) {
		hl := env.hl
		var files [2][]*lfs.File
		want := map[*lfs.File][]byte{}
		for c := range files {
			for i := 0; i < 3; i++ {
				data := pat(byte(10*c+i+1), (3+i)*lfs.BlockSize)
				f := put(t, p, hl, fmt.Sprintf("/c%d-%d", c, i), data)
				files[c] = append(files[c], f)
				want[f] = data
			}
		}
		left := len(files)
		done := env.k.NewCond("migrated")
		for c := range files {
			env.k.Go(fmt.Sprintf("caller-%d", c), func(cp *sim.Proc) {
				defer func() { left--; done.Broadcast() }()
				var inums []uint32
				for _, f := range files[c] {
					inums = append(inums, f.Inum())
				}
				if _, err := hl.MigrateFiles(cp, inums, false); err != nil {
					t.Errorf("caller %d: %v", c, err)
				}
			})
		}
		for left > 0 {
			done.Wait(p)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		for c := range files {
			for i, f := range files[c] {
				if got := get(t, p, f); !bytes.Equal(got, want[f]) {
					t.Errorf("caller %d file %d read back wrong after migration", c, i)
				}
			}
		}
	})
}
