package crash

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fsck"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// outcome is the audited result of recovering from one power cut.
type outcome struct {
	Phase       string
	Event       int
	WCacheDirty int // unflushed blocks the cut dropped

	Recovery lfs.RecoveryInfo
	Mount    core.MountStats

	FsckProblems int
	FsckSummary  string

	// Violations are durability-model breaches: synced data missing or
	// corrupt, removed-and-synced files resurrected, unreadable state.
	// A correct implementation produces none, at any cut point.
	Violations []string

	// Digest hashes everything observable after recovery (file contents,
	// recovery counters, mount stats, fsck summary). Identical seeds and
	// cut events must produce identical digests.
	Digest string
}

// recoverCut "reboots" from a power-cut snapshot: fresh kernel, the same
// device geometry restored to the captured durable images, a normal
// mount (roll-forward, cache-directory rebuild, staging revalidation,
// live-byte recompute), completion of any interrupted migration — then a
// full fsck plus durability-model audit.
func recoverCut(cfg config, snap *snapshot) (*outcome, error) {
	k := sim.NewKernel()
	defer k.Stop()
	k.AdvanceTo(snap.Now)
	disk, juke, err := buildDevices(k, cfg)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(disk.LoadStore(bytes.NewReader(snap.Disk)), juke.LoadStore(bytes.NewReader(snap.Juke))); err != nil {
		return nil, fmt.Errorf("crash: loading the media cut at event %d: %w", snap.Event, err)
	}
	o := attachObs(k, cfg, disk, juke)

	out := &outcome{
		Phase:       snap.Phase,
		Event:       snap.Event,
		WCacheDirty: snap.WCacheDirty,
	}
	var rerr error
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, coreConfig(cfg, o, disk, juke), false)
		if err != nil {
			rerr = fmt.Errorf("crash: remounting after cut at event %d (%s): %w", snap.Event, snap.Phase, err)
			return
		}
		// Finish whatever migration the cut interrupted: rescheduled
		// staging copy-outs drain and the staging area closes.
		if err := hl.CompleteMigration(p); err != nil {
			rerr = fmt.Errorf("crash: rerunning interrupted migration: %w", err)
			return
		}
		rep, err := fsck.Check(p, hl)
		if err != nil {
			rerr = fmt.Errorf("crash: fsck after recovery: %w", err)
			return
		}
		out.Recovery = hl.FS.Recovery()
		out.Mount = hl.MountStats()
		out.FsckProblems = len(rep.Problems)
		out.FsckSummary = rep.Summary()
		for _, pr := range rep.Problems {
			out.Violations = append(out.Violations, "fsck: "+pr.String())
		}
		if err := auditDurability(p, hl, snap, out); err != nil {
			rerr = err
			return
		}
		digest, err := recoveryDigest(p, hl, out)
		if err != nil {
			rerr = err
			return
		}
		out.Digest = digest
	})
	if rerr != nil {
		return nil, rerr
	}
	return out, nil
}

// readAll reads a recovered file in full.
func readAll(p *sim.Proc, f *lfs.File) ([]byte, error) {
	size, err := f.Size(p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	if _, err := f.ReadAt(p, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// auditDurability checks the recovered namespace against the snapshot's
// durability model:
//
//   - a file synced before the cut and untouched since must come back
//     byte-identical;
//   - a file with unsynced changes must still exist (its creation was
//     durable) and be fully readable, but its content is indeterminate —
//     roll-forward may surface any prefix of the unsynced writes;
//   - a file created after the last durability point may or may not have
//     survived; if present it must be readable;
//   - a file removed after the last sync may linger or be gone;
//   - anything else in the namespace is a resurrection — a violation.
func auditDurability(p *sim.Proc, hl *core.HighLight, snap *snapshot, out *outcome) error {
	names := make([]string, 0, len(snap.Durable))
	for name := range snap.Durable {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := snap.Durable[name]
		f, err := hl.FS.Open(p, name)
		if err != nil {
			if snap.Removed[name] {
				continue // the removal made it to the log before the cut
			}
			out.Violations = append(out.Violations,
				fmt.Sprintf("%s: synced file missing after recovery: %v", name, err))
			continue
		}
		got, err := readAll(p, f)
		if err != nil {
			out.Violations = append(out.Violations,
				fmt.Sprintf("%s: synced file unreadable after recovery: %v", name, err))
			continue
		}
		if snap.Dirty[name] || snap.Removed[name] {
			continue // content indeterminate; readability was the contract
		}
		if !bytes.Equal(got, want) {
			out.Violations = append(out.Violations,
				fmt.Sprintf("%s: synced content lost: %d bytes recovered, %d synced", name, len(got), len(want)))
		}
	}
	// Resurrection check: everything reachable must be accounted for.
	// (Walk holds the FS lock through the callback, so collect first and
	// open after it returns.)
	var reachable []string
	if err := hl.FS.Walk(p, "/", func(path string, fi lfs.FileInfo) error {
		if fi.Type != lfs.TypeDir {
			reachable = append(reachable, path)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, path := range reachable {
		if _, ok := snap.Durable[path]; ok {
			continue
		}
		if snap.Created[path] {
			f, err := hl.FS.Open(p, path)
			if err == nil {
				_, err = readAll(p, f)
			}
			if err != nil {
				out.Violations = append(out.Violations,
					fmt.Sprintf("%s: partially-created file unreadable: %v", path, err))
			}
			continue
		}
		out.Violations = append(out.Violations,
			fmt.Sprintf("%s: file resurrected by recovery (not durable, not recently created)", path))
	}
	return nil
}

// recoveryDigest hashes the complete observable post-recovery state.
func recoveryDigest(p *sim.Proc, hl *core.HighLight, out *outcome) (string, error) {
	type ent struct {
		path string
		dir  bool
	}
	var ents []ent
	if err := hl.FS.Walk(p, "/", func(path string, fi lfs.FileInfo) error {
		ents = append(ents, ent{path, fi.Type == lfs.TypeDir})
		return nil
	}); err != nil {
		return "", err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].path < ents[j].path })
	h := sha256.New()
	for _, e := range ents {
		if e.dir {
			fmt.Fprintf(h, "dir %s\n", e.path)
			continue
		}
		f, err := hl.FS.Open(p, e.path)
		if err != nil {
			return "", fmt.Errorf("crash: digesting %s: %w", e.path, err)
		}
		data, err := readAll(p, f)
		if err != nil {
			return "", fmt.Errorf("crash: digesting %s: %w", e.path, err)
		}
		fmt.Fprintf(h, "file %s %d %x\n", e.path, len(data), sha256.Sum256(data))
	}
	fmt.Fprintf(h, "recovery %+v\n", out.Recovery)
	fmt.Fprintf(h, "mount %+v\n", out.Mount)
	fmt.Fprintf(h, "fsck %s\n", out.FsckSummary)
	fmt.Fprintf(h, "retired %d\n", hl.RetiredSegments())
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
