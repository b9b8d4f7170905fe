package dump

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// The per-library line carries the device's transfer counts and what the
// service has queued there, so a library that serves nothing shows as such.
func TestReplicasPrintsPerLibraryLoad(t *testing.T) {
	k, hl := demoHL(t)
	k.RunProc(func(p *sim.Proc) {
		f, err := hl.FS.Create(p, "/file")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, 20*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		tag := hl.Cache.Lines()[0].Tag
		if err := hl.Svc.Eject(tag); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.Svc.DemandFetch(p, tag); err != nil {
			t.Fatal(err)
		}
	})
	st := hl.LibraryStatuses()[0]
	if st.Writes != hl.Stats().Svc.Copyouts || st.Writes < 2 || st.Reads != 1 || st.Outstanding != 0 {
		t.Fatalf("status %+v after %d copy-outs and one fetch", st, hl.Stats().Svc.Copyouts)
	}
	var out bytes.Buffer
	Replicas(&out, hl)
	if want := "io: 1 reads, 2 writes, 0 outstanding"; !strings.Contains(out.String(), want) {
		t.Fatalf("replicas report lacks %q:\n%s", want, out.String())
	}
	k.Stop()
}
