package migrate

import (
	"testing"
	"time"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestLRUOrdersByAgeOnly checks the pure-LRU competitor: candidates rank
// strictly oldest-first regardless of size.
func TestLRUOrdersByAgeOnly(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		mkFile(t, p, hl, "/old-small", 2, 1)
		p.Sleep(sim.Time(100 * time.Second))
		mkFile(t, p, hl, "/young-big", 32, 2)
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Time(10 * time.Second))

		cands, err := (&LRU{}).Select(p, hl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 2 || cands[0].Path != "/old-small" || cands[1].Path != "/young-big" {
			t.Fatalf("LRU ranking: %+v", cands)
		}
	})
	e.k.Stop()
}

// TestHeatCostDemotesRecentFiles checks the heat-weighted-cost competitor
// against the pure space-time product: a big file touched moments ago has
// the larger raw space-time score, but the recency discount ranks the
// stone-cold small file first — exactly the behavior that avoids staging
// out files an interactive user is about to come back to.
func TestHeatCostDemotesRecentFiles(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		mk := func(path string, nblocks int) {
			mkFile(t, p, hl, path, nblocks, 1)
			if err := hl.FS.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		mk("/cold-small", 1) // age 120s, 1 block
		p.Sleep(sim.Time(117 * time.Second))
		mk("/warm-big", 64) // age 3s, 64 blocks
		p.Sleep(sim.Time(3 * time.Second))

		stp, err := NewSTP().Select(p, hl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stp[0].Path != "/warm-big" {
			t.Fatalf("STP control ranking unexpected: %+v", stp)
		}
		hc, err := (&HeatCost{}).Select(p, hl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(hc) != 2 || hc[0].Path != "/cold-small" {
			t.Fatalf("heat-cost ranking: %+v", hc)
		}
	})
	e.k.Stop()
}

// TestMinAgeSkipRecordsSameInputs: a file left out for being younger than
// MinAge is audited with the same three inputs — its age, the threshold it
// fell under, its size — whichever per-file policy left it out.
func TestMinAgeSkipRecordsSameInputs(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		mkFile(t, p, hl, "/young", 4, 1)
		p.Sleep(sim.Time(10 * time.Second))
		const minAge = sim.Time(time.Minute)
		for _, pol := range []Policy{
			&STP{TimeExp: 1, SizeExp: 1, MinAge: minAge},
			&AccessTime{MinAge: minAge},
			&LRU{MinAge: minAge},
			&HeatCost{MinAge: minAge},
		} {
			cands, err := pol.Select(p, hl, 0)
			if err != nil || len(cands) != 0 {
				t.Fatalf("%s: selected %+v, err %v; want nothing", pol.Name(), cands, err)
			}
			all := hl.Audit.All()
			d := all[len(all)-1]
			if d.Subject != "file:/young" || d.Reason != "younger than min age" {
				t.Fatalf("%s: last audit record is %v", pol.Name(), d)
			}
			want := map[string]float64{"age_s": 10, "min_age_s": 60, "size": 4 * lfs.BlockSize}
			if len(d.Inputs) != len(want) {
				t.Fatalf("%s: inputs %v, want %v", pol.Name(), d.Inputs, want)
			}
			for _, in := range d.Inputs {
				if v, ok := want[in.Key]; !ok || v != in.Val {
					t.Fatalf("%s: input %s=%v, want %v", pol.Name(), in.Key, in.Val, want)
				}
			}
		}
	})
	e.k.Stop()
}

// TestLRUDrivesMigrator plugs a competitor into the Migrator and checks it
// actually moves what the policy ranked.
func TestLRUDrivesMigrator(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		f := mkFile(t, p, hl, "/mig", 16, 1)
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Time(120 * time.Second))

		m := NewMigrator(hl)
		m.Policy = &LRU{}
		staged, err := m.RunOnce(p, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if staged == 0 {
			t.Fatal("LRU-driven migrator staged nothing")
		}
		refs, err := hl.FS.FileBlockRefs(p, f.Inum())
		if err != nil {
			t.Fatal(err)
		}
		tert := 0
		for _, ref := range refs {
			if hl.Amap.IsTertiarySeg(hl.Amap.SegOf(ref.Addr)) {
				tert++
			}
		}
		// 16 data blocks plus the file's indirect block.
		if tert < 16 {
			t.Fatalf("migrated only %d of 16 blocks under the LRU policy", tert)
		}
	})
	e.k.Stop()
}
