package hsm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/hsm"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// pinnedSegments lists the tertiary segments hl reports pinned.
func pinnedSegments(hl *core.HighLight) []int {
	var out []int
	for tag := 0; tag < hl.FS.TsegCount(); tag++ {
		if hl.SegmentPinned(tag) {
			out = append(out, tag)
		}
	}
	return out
}

// rig builds a single-library HighLight instance with a small segment
// cache, so eviction pressure is easy to provoke in pin-guard tests.
func rig(t *testing.T, p *sim.Proc, k *sim.Kernel) (*core.HighLight, *dev.Disk, *jukebox.Jukebox) {
	t.Helper()
	hl, disk, jb, err := buildRig(p, k)
	if err != nil {
		t.Fatal(err)
	}
	return hl, disk, jb
}

func buildRig(p *sim.Proc, k *sim.Kernel) (*core.HighLight, *dev.Disk, *jukebox.Jukebox, error) {
	disk := dev.NewDisk(k, dev.RZ57, 256*64, nil)
	jb := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	hl, err := core.New(p, core.Config{
		SegBlocks:   64,
		Disks:       []dev.BlockDev{disk},
		Jukeboxes:   []jukebox.Footprint{jb},
		CacheSegs:   8,
		MaxInodes:   256,
		BufferBytes: 64 * lfs.BlockSize,
	}, true)
	return hl, disk, jb, err
}

// migrateAndEject creates path with nblocks deterministic blocks, migrates
// it to tertiary, and drops every cache line so stage-ins must fetch.
func migrateAndEject(t *testing.T, p *sim.Proc, hl *core.HighLight, path string, nblocks int) []byte {
	t.Helper()
	data, err := makeTertiaryFile(p, hl, path, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func makeTertiaryFile(p *sim.Proc, hl *core.HighLight, path string, nblocks int) ([]byte, error) {
	f, err := hl.FS.Create(p, path)
	if err != nil {
		return nil, err
	}
	data := make([]byte, nblocks*lfs.BlockSize)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		return nil, err
	}
	if err := hl.FS.Sync(p); err != nil {
		return nil, err
	}
	if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
		return nil, err
	}
	if err := hl.CompleteMigration(p); err != nil {
		return nil, err
	}
	return data, ejectEverything(hl)
}

func ejectEverything(hl *core.HighLight) error {
	for _, l := range hl.Cache.Lines() {
		if !l.Staging && l.Pins == 0 && !hl.SegmentPinned(l.Tag) {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				return err
			}
		}
	}
	return nil
}

func auditVerdicts(hl *core.HighLight) map[string]int {
	out := map[string]int{}
	for _, d := range hl.Audit.All() {
		out[d.Verdict]++
	}
	return out
}

func attach(t *testing.T, p *sim.Proc, hl *core.HighLight) *hsm.Service {
	t.Helper()
	s, err := hsm.Attach(p, hl)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStageInPinUnpinLifecycle walks requests through the full service
// surface: stage-in caches and attributes the file's tertiary segments,
// pin makes them immovable (evict refused with the typed guard sentinel,
// stage-out refused), unpin releases them, and every transition is
// audited.
func TestStageInPinUnpinLifecycle(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		migrateAndEject(t, p, hl, "/a", 8)
		want := migrateAndEject(t, p, hl, "/b", 8)
		s := attach(t, p, hl)

		r, err := s.Submit(p, hsm.OpStageIn, "/a", "alice")
		if err != nil {
			t.Fatalf("stage-in: %v", err)
		}
		if r.State != hsm.Done || r.Bytes != 8*lfs.BlockSize {
			t.Fatalf("stage-in request: state=%v bytes=%d", r.State, r.Bytes)
		}
		staged := s.StagedEntries()
		if len(staged) != 1 || staged[0].Path != "/a" || staged[0].Principal != "alice" {
			t.Fatalf("staged entries: %+v", staged)
		}
		for _, tag := range staged[0].Segs {
			if _, ok := hl.Cache.Peek(tag); !ok {
				t.Fatalf("staged segment %d not cached", tag)
			}
		}

		if _, err := s.Submit(p, hsm.OpPin, "/b", "alice"); err != nil {
			t.Fatalf("pin: %v", err)
		}
		pins := s.Pins()
		if len(pins) != 1 || pins[0].Path != "/b" || len(pins[0].Segs) == 0 {
			t.Fatalf("pins: %+v", pins)
		}
		for _, tag := range pins[0].Segs {
			if !hl.SegmentPinned(tag) || !hl.FS.TsegPinned(tag) {
				t.Fatalf("segment %d not pinned end-to-end", tag)
			}
			if err := hl.Svc.Eject(tag); !errors.Is(err, cache.ErrEvictLocked) {
				t.Fatalf("eject of pinned segment %d: %v", tag, err)
			}
		}
		if !hl.InodePinned(pins[0].Inum) {
			t.Fatalf("inode %d not pinned", pins[0].Inum)
		}

		// Pinning twice and moving a pinned file are both refused.
		if r, _ := s.Submit(p, hsm.OpPin, "/b", "alice"); r.State != hsm.Failed || !strings.Contains(r.Err, "already pinned") {
			t.Fatalf("double pin: %+v", r)
		}
		if r, _ := s.Submit(p, hsm.OpStageOut, "/b", "alice"); r.State != hsm.Failed || !strings.Contains(r.Err, "pinned") {
			t.Fatalf("stage-out of pinned file: %+v", r)
		}
		if r, _ := s.Submit(p, hsm.OpEvict, "/b", "alice"); r.State != hsm.Failed || !strings.Contains(r.Err, "pinned") {
			t.Fatalf("evict of pinned file: %+v", r)
		}

		// Unpin releases everything; the segments become evictable again.
		if _, err := s.Submit(p, hsm.OpUnpin, "/b", "alice"); err != nil {
			t.Fatalf("unpin: %v", err)
		}
		if got := len(s.Pins()); got != 0 {
			t.Fatalf("pins after unpin: %d", got)
		}
		if got := pinnedSegments(hl); len(got) != 0 {
			t.Fatalf("core pinned segments after unpin: %v", got)
		}
		if _, err := s.Submit(p, hsm.OpEvict, "/b", "alice"); err != nil {
			t.Fatalf("evict after unpin: %v", err)
		}

		// Content still reads back (refetched on demand).
		f, err := hl.FS.Open(p, "/b")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(want))
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("content mismatch at %d", i)
			}
		}

		v := auditVerdicts(hl)
		for _, verdict := range []string{"queued", "done", "failed", "pinned", "unpinned"} {
			if v[verdict] == 0 {
				t.Fatalf("no %q audit verdicts: %v", verdict, v)
			}
		}
		reqs := s.Requests()
		for i, r := range reqs {
			if r.ID != int64(i+1) {
				t.Fatalf("request IDs not dense: %+v", reqs)
			}
		}
	})
}

// TestQuotaAdmissionShed checks the hard limits: a stage-in or pin whose
// projected usage crosses the principal's hard quota is shed at admission
// with the typed error, audited, and never enters the ledger.
func TestQuotaAdmissionShed(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		migrateAndEject(t, p, hl, "/q1", 8)
		migrateAndEject(t, p, hl, "/q2", 8)
		s := attach(t, p, hl)

		if err := s.SetQuota(p, "alice", hsm.Quota{StagedHard: 10 * lfs.BlockSize}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(p, hsm.OpStageIn, "/q1", "alice"); err != nil {
			t.Fatalf("first stage-in: %v", err)
		}
		r, err := s.Submit(p, hsm.OpStageIn, "/q2", "alice")
		if !errors.Is(err, hsm.ErrQuotaExceeded) || r != nil {
			t.Fatalf("over-quota stage-in: r=%v err=%v", r, err)
		}
		if v := auditVerdicts(hl); v["quota-shed"] == 0 {
			t.Fatalf("no quota-shed audit verdict: %v", v)
		}

		// Quotas are per principal: bob is unlimited.
		if _, err := s.Submit(p, hsm.OpStageIn, "/q2", "bob"); err != nil {
			t.Fatalf("bob stage-in: %v", err)
		}

		// Pinned-bytes hard limit sheds pins specifically.
		if err := s.SetQuota(p, "bob", hsm.Quota{PinnedHard: 4 * lfs.BlockSize}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(p, hsm.OpPin, "/q2", "bob"); !errors.Is(err, hsm.ErrQuotaExceeded) {
			t.Fatalf("over-quota pin: %v", err)
		}

		st := s.StagedEntries()
		if len(st) != 2 {
			t.Fatalf("staged entries: %+v", st)
		}
		aliceStaged, _ := s.UsageOf("alice")
		if aliceStaged != 8*lfs.BlockSize {
			t.Fatalf("alice staged usage: %d", aliceStaged)
		}
	})
}

// TestQuotaCountsAStagedPathOnce checks admission against a path the
// principal has staged already: executing the request replaces that path's
// entry, so the projection must not count the file twice. With a 12-block
// hard limit and an 8-block file, staging it again and pinning it are both
// admitted, and usage stays 8 blocks.
func TestQuotaCountsAStagedPathOnce(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		migrateAndEject(t, p, hl, "/a", 8)
		s := attach(t, p, hl)
		if err := s.SetQuota(p, "alice", hsm.Quota{StagedHard: 12 * lfs.BlockSize}); err != nil {
			t.Fatal(err)
		}
		for _, op := range []hsm.Op{hsm.OpStageIn, hsm.OpStageIn, hsm.OpPin} {
			if _, err := s.Submit(p, op, "/a", "alice"); err != nil {
				t.Fatalf("%s of a file alice has staged: %v", op, err)
			}
			if staged, _ := s.UsageOf("alice"); staged != 8*lfs.BlockSize {
				t.Fatalf("after %s: alice's staged usage %d, want one 8-block file", op, staged)
			}
		}
		if v := auditVerdicts(hl); v["quota-shed"] != 0 {
			t.Fatalf("quota-shed audit verdicts: %v", v)
		}
	})
}

// TestConcurrentPinsOfOnePath pins one cold file from two procs at the same
// instant. Requests run one at a time, so the second finds the first's pin
// and fails with ErrAlreadyPinned, and the one unpin leaves nothing pinned.
func TestConcurrentPinsOfOnePath(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		migrateAndEject(t, p, hl, "/cold", 8)
		s := attach(t, p, hl)
		errs := make([]error, 2)
		done := 0
		finished := k.NewCond("pins")
		for i := range errs {
			k.Go(fmt.Sprintf("pinner%d", i), func(cp *sim.Proc) {
				_, errs[i] = s.Submit(cp, hsm.OpPin, "/cold", "alice")
				done++
				finished.Broadcast()
			})
		}
		for done < len(errs) {
			finished.Wait(p)
		}
		if errs[0] != nil || !errors.Is(errs[1], hsm.ErrAlreadyPinned) {
			t.Fatalf("two pins of /cold: %v, %v; want success, then ErrAlreadyPinned", errs[0], errs[1])
		}
		inum := s.Pins()[0].Inum
		if _, err := s.Submit(p, hsm.OpUnpin, "/cold", "alice"); err != nil {
			t.Fatal(err)
		}
		if got := pinnedSegments(hl); len(got) != 0 {
			t.Fatalf("segments still pinned after the unpin: %v", got)
		}
		if hl.InodePinned(inum) {
			t.Fatalf("inode %d still pinned after the unpin", inum)
		}
	})
}

// scenario runs a fixed seeded multi-principal workload against a fresh
// rig and returns a digest of every externally observable artifact: the
// audit stream, the request ledger, pins, staged attributions, each
// request's outcome, and final virtual time.
func scenario(seed uint64) (string, error) {
	k := sim.NewKernel()
	var digest string
	var fail error
	k.RunProc(func(p *sim.Proc) {
		hl, _, _, err := buildRig(p, k)
		if err != nil {
			fail = err
			return
		}
		paths := []string{"/w/a", "/w/b", "/w/c", "/w/d"}
		if err := hl.FS.Mkdir(p, "/w"); err != nil {
			fail = err
			return
		}
		for i, path := range paths {
			if _, err := makeTertiaryFile(p, hl, path, 4+2*i); err != nil {
				fail = err
				return
			}
		}
		s, err := hsm.Attach(p, hl)
		if err != nil {
			fail = err
			return
		}
		if err := s.SetQuota(p, "alice", hsm.Quota{StagedHard: 64 * lfs.BlockSize}); err != nil {
			fail = err
			return
		}
		if err := s.SetQuota(p, "bob", hsm.Quota{PinnedHard: 32 * lfs.BlockSize}); err != nil {
			fail = err
			return
		}
		// One closed-loop client per principal: twelve requests, each a
		// StageIn of a seeded-random path or, every pinEvery-th, a Pin of a
		// path it has not pinned; past two live pins it unpins the oldest.
		var outcomes [2]strings.Builder
		left, done := 2, k.NewCond("principals")
		for i, pr := range []struct {
			name     string
			gap      time.Duration
			pinEvery int
			seed     uint64
		}{{"alice", 200 * time.Millisecond, 3, seed}, {"bob", 300 * time.Millisecond, 4, seed + 7}} {
			k.Go("principal-"+pr.name, func(cp *sim.Proc) {
				defer func() { left--; done.Broadcast() }()
				rng := sim.NewRNG(pr.seed)
				var pinned []string
				for r := 1; r <= 12; r++ {
					cp.Sleep(sim.Time(pr.gap))
					path, op := paths[rng.Intn(len(paths))], hsm.OpStageIn
					if r%pr.pinEvery == 0 && !slices.Contains(pinned, path) {
						op = hsm.OpPin
					}
					_, err := s.Submit(cp, op, path, pr.name)
					if err == nil && op == hsm.OpPin {
						pinned = append(pinned, path)
					}
					fmt.Fprintf(&outcomes[i], "%v %s %v\n", op, path, err)
					if len(pinned) > 2 {
						_, err := s.Submit(cp, hsm.OpUnpin, pinned[0], pr.name)
						fmt.Fprintf(&outcomes[i], "unpin %s %v\n", pinned[0], err)
						pinned = pinned[1:]
					}
				}
			})
		}
		for left > 0 {
			done.Wait(p)
		}

		h := sha256.New()
		for _, d := range hl.Audit.All() {
			fmt.Fprintln(h, d.String())
		}
		for _, r := range s.Requests() {
			fmt.Fprintf(h, "req %d %s %s %s %s %d %d %d %d %q\n",
				r.ID, r.Op, r.Path, r.Principal, r.State,
				int64(r.Submitted), int64(r.Started), int64(r.Finished), r.Bytes, r.Err)
		}
		for _, pin := range s.Pins() {
			fmt.Fprintf(h, "pin %s %d %s %d %v %d\n", pin.Path, pin.Inum, pin.Principal, pin.Bytes, pin.Segs, int64(pin.PinnedAt))
		}
		for _, st := range s.StagedEntries() {
			fmt.Fprintf(h, "staged %s %s %d %v %d\n", st.Path, st.Principal, st.Bytes, st.Segs, int64(st.StagedAt))
		}
		for _, o := range outcomes {
			fmt.Fprint(h, o.String())
		}
		fmt.Fprintf(h, "now %d audit %d\n", int64(p.Now()), hl.Audit.Total())
		digest = hex.EncodeToString(h.Sum(nil))
	})
	return digest, fail
}

// TestDoubleRunDeterminism runs the seeded multi-principal scenario twice
// on fresh kernels and requires byte-identical digests: the request
// ledger, quota admission, and audit verdicts must not depend on map order
// or wall-clock state.
func TestDoubleRunDeterminism(t *testing.T) {
	d1, err := scenario(20260808)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := scenario(20260808)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("seeded runs diverged:\n  %s\n  %s", d1, d2)
	}
	d3, err := scenario(99)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatalf("different seeds produced identical digests (digest not sensitive)")
	}
}
