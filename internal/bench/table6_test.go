package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/jukebox"
	"repro/internal/sim"
)

// TestTable6VolumeChanges pins where each of Table 6's three rigs changes MO
// volumes at full scale: twice, both while staging contends for the arm. So
// no contention-free cell carries a 13.4 s swap, and each of the three is the
// same drain of staged lines to the medium: like for like (EXPERIMENTS.md,
// Table 6). Times are on one base, the start of the migration.
func TestTable6VolumeChanges(t *testing.T) {
	s := FullScale()
	for _, c := range []struct {
		name string
		kind stagingKind
	}{{"RZ57", stageOnMain}, {"RZ57+RZ58", stageOnRZ58}, {"RZ57+HP7958A", stageOnHP7958A}} {
		t.Run(c.name, func(t *testing.T) {
			r := newStagedHLRig(s, c.kind)
			var m objectMigration
			var start, staged, drained sim.Time
			var trace bytes.Buffer
			err := r.run(func(p *sim.Proc) (err error) {
				r.hl.Obs.EnableTrace() // retention charges no virtual time
				if _, m, err = migrateLargeObject(p, r, s); err != nil {
					return err
				}
				drained = p.Now()
				start = drained - m.drained
				staged = start + m.staged
				return r.hl.Obs.WriteChromeTrace(&trace)
			})
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Cat     string
					Ts, Dur float64 // virtual microseconds
				}
			}
			if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			var swaps [][2]sim.Time
			for _, e := range doc.TraceEvents {
				if e.Cat == "jb.swap" {
					at := sim.Time(e.Ts * 1e3)
					swaps = append(swaps, [2]sim.Time{at, at + sim.Time(e.Dur*1e3)})
				}
			}
			if len(swaps) != 2 {
				t.Fatalf("%d volume changes, want 2", len(swaps))
			}
			for _, sw := range swaps {
				if d := (sw[1] - sw[0]).Seconds(); math.Abs(d-jukebox.MO6300.SwapTime.Seconds()) > 0.05 {
					t.Errorf("a volume change took %.3f s, want %.1f", d, jukebox.MO6300.SwapTime.Seconds())
				}
			}
			phase := func(sw [2]sim.Time) string {
				switch {
				case sw[0] >= start && sw[1] <= staged:
					return "contention"
				case sw[0] >= staged && sw[1] <= drained:
					return "contention-free"
				}
				return "neither"
			}
			for i, sw := range swaps {
				if got := phase(sw); got != "contention" {
					t.Errorf("volume change %d at %.1f-%.1f s falls in the %s phase, want contention (staging ends at %.1f s, the copy-outs at %.1f s)",
						i+1, (sw[0] - start).Seconds(), (sw[1] - start).Seconds(), got, (staged - start).Seconds(), (drained - start).Seconds())
				}
			}
			t.Logf("swaps at %.1f s and %.1f s; staging ends at %.1f s, the copy-outs at %.1f s; %.1f MiB move after staging",
				(swaps[0][0] - start).Seconds(), (swaps[1][0] - start).Seconds(), (staged - start).Seconds(), (drained - start).Seconds(),
				float64(m.bytesDrained-m.bytesStaged)/(1<<20))
		})
	}
}
