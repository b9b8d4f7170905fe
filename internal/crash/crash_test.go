package crash

import (
	"fmt"
	"testing"
)

const cutsPerPhase = 8 // 5 phases x 8 = 40 cut points

// TestWorkloadPhases sanity-checks the pristine run: every pipeline phase
// generates media writes wide enough for the matrix, and the tertiary
// pipeline really swapped volumes and hit end-of-medium.
func TestWorkloadPhases(t *testing.T) {
	res, err := runWorkload(defaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snap != nil {
		t.Fatal("pristine run captured a snapshot")
	}
	want := phaseNames()
	if len(res.Phases) != len(want) {
		t.Fatalf("got %d phase spans, want %d: %+v", len(res.Phases), len(want), res.Phases)
	}
	for i, span := range res.Phases {
		if span.Phase != want[i] {
			t.Errorf("phase %d = %q, want %q", i, span.Phase, want[i])
		}
		if n := span.End - span.Start; n < cutsPerPhase {
			t.Errorf("phase %q spans only %d media writes, need %d", span.Phase, n, cutsPerPhase)
		}
	}
	if !res.EOMHit {
		t.Error("end-of-medium volume never filled")
	}
	if res.Swaps == 0 {
		t.Error("no jukebox volume swaps")
	}
}

// TestCrashMatrix is the tentpole acceptance test: >= 40 power cuts
// bracketing every pipeline phase, each recovering with zero fsck
// problems and zero durability violations, with at least one cut dropping
// unflushed write-cache blocks, and every per-cut digest the one
// testdata/matrix.golden holds.
func TestCrashMatrix(t *testing.T) {
	rep := checkMatrix(t, "default")
	if rep.cacheDropCuts() == 0 {
		t.Error("no cut point caught the volatile write cache holding unflushed blocks")
	}
}

// TestCrashMatrixWriteThrough cuts the default rig with no write cache, the
// configuration the benchmark runs.
func TestCrashMatrixWriteThrough(t *testing.T) {
	checkByReference(t, "default-wt")
}

// TestRecoverySurvivesWriteCacheDrop pins the write-back cache scenario
// explicitly: cut mid-sync while the cache holds dirty blocks, and show
// the drop costs only unsynced data.
func TestRecoverySurvivesWriteCacheDrop(t *testing.T) {
	cfg := defaultConfig()
	pristine, err := runWorkload(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := planCuts(pristine.Phases, cutsPerPhase)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		res, err := runWorkload(cfg, c.Event)
		if err != nil {
			t.Fatal(err)
		}
		if res.Snap == nil || res.Snap.WCacheDirty == 0 {
			continue
		}
		out, err := recoverCut(cfg, res.Snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Violations) > 0 {
			t.Fatalf("cut at event %d dropped %d cached blocks and violated durability: %v",
				c.Event, res.Snap.WCacheDirty, out.Violations)
		}
		t.Logf("event %d (%s): dropped %d unflushed blocks, recovery clean (%s)",
			c.Event, c.Phase, res.Snap.WCacheDirty, out.FsckSummary)
		return
	}
	t.Fatal("no planned cut found the write cache dirty")
}

func Example_planCuts() {
	spans := []phaseSpan{
		{Phase: "a", Start: 0, End: 10},
		{Phase: "b", Start: 10, End: 14},
	}
	cuts, _ := planCuts(spans, 4)
	for _, c := range cuts {
		fmt.Println(c.Phase, c.Event)
	}
	// Output:
	// a 1
	// a 4
	// a 7
	// a 10
	// b 11
	// b 12
	// b 13
	// b 14
}
