package crash

import (
	"testing"

	"repro/internal/dev"
)

// TestCutInsideDiffCheckpoint cuts the write-through rig, the by-reference
// path the benchmark runs, inside the table write of a checkpoint that writes
// only the table blocks that changed (one a staging line opens), and between
// that write and its header. The region it was writing holds a mix of two
// checkpoints' tables, or the new tables under no header: recovery must mount
// the other region, fsck must find nothing, and no bytes handed over by
// reference may have changed.
func TestCutInsideDiffCheckpoint(t *testing.T) {
	audit := dev.Audit
	dev.Audit = &dev.HandOvers{}
	defer func() { dev.Audit = audit }()
	cfg := rigConfig(t, "default-wt")
	type diskWrite struct{ event, blk int64 }
	var writes []diskWrite
	cfg.OnDiskWrite = func(event, blk int64) { writes = append(writes, diskWrite{event, blk}) }
	pristine, err := runWorkload(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnDiskWrite = nil
	var staging phaseSpan
	for _, span := range pristine.Phases {
		if span.Phase == phaseStaging {
			staging = span
		}
	}
	// The header slots are blocks 1 and 2; the two table regions follow.
	tb := int64(pristine.TableBlocks)
	table := func(blk int64) bool { return blk >= 3 && blk < 3+2*tb }
	var first, header, region int64 = -1, -1, -1
	for i, w := range writes {
		if (w.blk != 1 && w.blk != 2) || w.event <= int64(staging.Start) || w.event > int64(staging.End) {
			continue
		}
		j := i
		for j > 0 && table(writes[j-1].blk) {
			j--
		}
		if n := w.event - writes[j].event; j < i && n >= 2 && n < tb {
			first, header, region = writes[j].event, w.event, (writes[j].blk-3)/tb
			break
		}
	}
	if first < 0 {
		t.Fatalf("no staging-phase checkpoint wrote between 2 and %d table blocks", tb-1)
	}
	t.Logf("checkpoint to region %d: table blocks at events %d-%d, header at event %d", region, first+1, header, header+1)
	for _, c := range []struct {
		name  string
		event int64
	}{
		{"inside the table write", first + 1},
		{"between the table write and the header", header},
	} {
		res, err := runWorkload(cfg, int(c.event))
		if err != nil {
			t.Fatal(err)
		}
		if res.Snap == nil {
			t.Fatalf("%s: the replay never reached event %d", c.name, c.event)
		}
		out, err := recoverCut(cfg, res.Snap)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if int64(out.Recovery.Region) == region {
			t.Errorf("%s (event %d): recovery mounted region %d, the one being written", c.name, c.event, region)
		}
		if out.FsckProblems != 0 || len(out.Violations) != 0 {
			t.Errorf("%s (event %d): %d fsck problems, violations %v", c.name, c.event, out.FsckProblems, out.Violations)
		}
	}
	if err := dev.Audit.Check(); err != nil {
		t.Error(err)
	}
}
