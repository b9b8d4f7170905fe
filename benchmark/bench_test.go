package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dev"
	"repro/internal/fsck"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// tinyRuns runs every workload at tiny scale once untraced and once traced
// and shares the results between tests, so the whole file stays within a
// few seconds.
var tinyRuns = sync.OnceValues(func() (map[string][2]*result, error) {
	out := map[string][2]*result{}
	for _, w := range workloads {
		plain, err := runWorkload(w, runOpts{seed: defaultSeed, tiny: true})
		if err != nil {
			return nil, err
		}
		traced, err := runWorkload(w, runOpts{seed: defaultSeed, tiny: true, traced: true})
		if err != nil {
			return nil, err
		}
		out[w.name] = [2]*result{plain, traced}
	}
	return out, nil
})

func tiny(t *testing.T) map[string][2]*result {
	t.Helper()
	runs, err := tinyRuns()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// exactOf returns the metrics of r that are on the virtual clock or are
// exact counts.
func exactOf(r *result) map[string]float64 {
	out := map[string]float64{}
	for name, m := range r.Metrics {
		if m.Exact {
			out[name] = m.Value
		}
	}
	return out
}

func diffExact(t *testing.T, what string, a, b *result) {
	t.Helper()
	ea, eb := exactOf(a), exactOf(b)
	if len(ea) == 0 || len(ea) != len(eb) {
		t.Fatalf("%s %s: %d vs %d exact metrics", a.Workload, what, len(ea), len(eb))
	}
	for name, v := range ea {
		if eb[name] != v {
			t.Errorf("%s %s: %s = %v vs %v", a.Workload, what, name, v, eb[name])
		}
	}
}

// The untraced and the traced run are two separate runs of one seed, so
// they must agree bit for bit on every virtual-clock metric and exact
// count, twice over: a second run reproduces the first, and the timing
// decorators on the disk and jukebox seams, obs span retention, the kernel
// profiler and allocation sampling change nothing the simulation can see.
// (Inside each run, runWorkload already fails if any two reps disagree.)
func TestRunsRepeatTracedOrNot(t *testing.T) {
	for name, pair := range tiny(t) {
		if !pair[1].Traced || pair[0].Traced {
			t.Fatalf("%s: runs mislabelled", name)
		}
		diffExact(t, "traced run vs untraced run", pair[0], pair[1])
	}
}

// Reps are started while they fit the -seconds budget, above a floor that
// holds however small the budget is: minReps measured reps plus the final
// one, and two traced reps on a traced run.
func TestRepsFillTheBudget(t *testing.T) {
	for name, pair := range tiny(t) { // budget 0: the floor
		if pair[0].Reps != minReps+1 {
			t.Errorf("%s: %d untraced reps on a zero budget, want the floor of %d", name, pair[0].Reps, minReps+1)
		}
		if n := pair[1].Metrics["bench.trace_overhead_pct"].N; n < 2 {
			t.Errorf("%s: traced run took its medians over %d traced reps, want at least 2", name, n)
		}
	}
	// Sized from a floor run's own duration (warm-up, minReps, final), so
	// the test holds on a slow box and under the race detector.
	w := workloadByName("largeobj")
	start := time.Now()
	if _, err := runWorkload(w, runOpts{seed: defaultSeed, tiny: true}); err != nil {
		t.Fatal(err)
	}
	floor := time.Since(start).Seconds()
	budget := 3 * floor
	start = time.Now()
	res, err := runWorkload(w, runOpts{seed: defaultSeed, tiny: true, seconds: budget})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start).Seconds(); res.Reps <= minReps+1 || took > budget+floor {
		t.Errorf("budget %.2f s: %d reps in %.2f s, want more than the floor of %d within the budget", budget, res.Reps, took, minReps+1)
	}
}

// Every workload and metric BENCHMARK.json names is produced, nothing else
// is, and the names are well formed.
func TestOutputMatchesSpec(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if want[m.Name] {
			t.Errorf("metric %q named twice", m.Name)
		}
		want[m.Name] = true
	}
	runs := tiny(t)
	for _, sw := range sp.Workloads {
		pair, ok := runs[sw.Name]
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which does not exist", sw.Name)
			continue
		}
		plain, traced := pair[0], pair[1]
		for name := range traced.Metrics {
			if !want[name] {
				t.Errorf("%s emits %q, which BENCHMARK.json does not name", sw.Name, name)
			}
		}
		for name := range want {
			if _, ok := traced.Metrics[name]; !ok {
				t.Errorf("%s does not emit %q", sw.Name, name)
			}
		}
		if plain.Failed != 0 || traced.Failed != 0 || !plain.Correct {
			t.Errorf("%s: %d of %d operations failed", sw.Name, plain.Failed, plain.Attempted)
		}
		if v := plain.Metrics["ok_rate"].Value; v != 1 {
			t.Errorf("%s: ok_rate %v, want 1 (fail_rate 0)", sw.Name, v)
		}

		// The driver's result line carries exactly the end-to-end metrics
		// untraced and exactly the per-layer metrics traced.
		for i, r := range []*result{plain, traced} {
			line, err := contractLine(sp, r)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", sw.Name, err)
			}
			n := len(sp.EndToEnd)
			if i == 1 {
				n = len(sp.PerLayer)
			}
			if len(got.Metrics) != n || !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s traced=%v: result line has %d metrics (want %d), correct=%v attempted=%d failed=%d",
					sw.Name, r.Traced, len(got.Metrics), n, got.Correct, got.Attempted, got.Failed)
			}
		}
	}
}

// The workloads must separate the layers as designed: the tertiary side
// and the front end are idle on largeobj and busy on serve. (Volume swaps
// need the paper-scale run length; at tiny scale serve's volumes all stay
// loaded.)
func TestWorkloadsSeparateLayers(t *testing.T) {
	runs := tiny(t)
	for _, name := range []string{"jukebox.reads", "jukebox.writes", "jukebox.swaps", "tertiary.fetches", "tertiary.copyouts", "svc.admitted"} {
		if v := runs["largeobj"][0].Metrics[name].Value; v != 0 {
			t.Errorf("largeobj %s = %v, want 0", name, v)
		}
		if v := runs["serve"][0].Metrics[name].Value; v == 0 && name != "jukebox.swaps" {
			t.Errorf("serve %s = 0, want activity", name)
		}
	}
}

// A seam decorator must keep every capability the layers above probe for
// by type assertion; a dropped one silently changes fetch routing or
// durability barriers.
func TestSeamsForwardCapabilities(t *testing.T) {
	k := sim.NewKernel()
	rec := newRecorder(true)
	d := dev.NewDisk(k, dev.RZ57, 64, nil)
	var bd dev.BlockDev = diskProbe{Disk: d, rec: rec}
	if _, ok := bd.(dev.Flusher); !ok {
		t.Error("diskProbe drops dev.Flusher (stripe would skip the write barrier)")
	}
	if _, ok := bd.(lfs.Flusher); !ok {
		t.Error("diskProbe drops lfs.Flusher")
	}

	j := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 4, 4*lfs.BlockSize, nil)
	var fp jukebox.Footprint = jukeProbe{Jukebox: j, rec: rec}
	lib := jukebox.NewLibrary(0, "", fp)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, j.SegmentBytes())
		if err := lib.WriteSegment(p, 1, 0, buf); err != nil {
			t.Error(err)
		}
	})
	if !lib.VolumeLoaded(1) || lib.VolumeLoaded(2) {
		t.Error("VolumeLoaded is not forwarded through the decorator")
	}
	if got, want := lib.IdleHealthyDrives(), j.IdleHealthyDrives(); got != want || got == 0 {
		t.Errorf("IdleHealthyDrives %d through the decorator, %d direct", got, want)
	}
	if lib.Stats().Writes != 1 || lib.Profile().Name != jukebox.MO6300.Name {
		t.Error("Stats or Profile is not forwarded through the decorator")
	}
	if _, ok := fp.(interface{ EraseVolume(int) }); !ok {
		t.Error("jukeProbe drops EraseVolume")
	}
}

// The fsck gate tolerates one known problem class, on largeobj at paper
// scale only and only up to the count seen at the parent commit; more of
// it, or any of it elsewhere, fails the run like every other problem.
func TestFsckGate(t *testing.T) {
	for _, w := range workloads {
		if w.fsckUndercount != 0 && w.name != "largeobj" {
			t.Errorf("%s tolerates %d fsck problems, want 0", w.name, w.fsckUndercount)
		}
	}
	under := fsck.Problem{Where: "segment 3", What: "usage table says 995328 live bytes but 1032192 reachable bytes reside here"}
	other := fsck.Problem{Where: "inode 7", What: "block 12 claimed twice"}
	if known, bad := judgeFsck([]fsck.Problem{under, under}, 3); known != 2 || len(bad) != 0 {
		t.Errorf("2 under-counts, 3 tolerated: known=%d bad=%q", known, bad)
	}
	if _, bad := judgeFsck([]fsck.Problem{under, under, under, under}, 3); len(bad) != 4 {
		t.Errorf("4 under-counts, 3 tolerated: bad=%q, want all 4", bad)
	}
	if _, bad := judgeFsck([]fsck.Problem{under}, 0); len(bad) != 1 {
		t.Errorf("1 under-count, none tolerated: bad=%q", bad)
	}
	if _, bad := judgeFsck([]fsck.Problem{under, other}, 3); len(bad) != 1 || !strings.Contains(bad[0], "claimed twice") {
		t.Errorf("another problem class must always fail: bad=%q", bad)
	}
}

func TestCompare(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, edit func(r *result)) string {
		t.Helper()
		src := tiny(t)["largeobj"][0]
		cp := *src
		cp.Metrics = map[string]metric{}
		for k, v := range src.Metrics {
			cp.Metrics[k] = v
		}
		if edit != nil {
			edit(&cp)
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, map[string]*result{"largeobj": &cp}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scale := func(name string, f float64) func(r *result) {
		return func(r *result) {
			m := r.Metrics[name]
			m.Value, m.Q1, m.Q3 = m.Value*f, m.Q1*f, m.Q3*f
			r.Metrics[name] = m
		}
	}
	base := write("a.json", nil)

	var out bytes.Buffer
	if err := compareFiles(sp, base, write("same.json", nil), &out); err != nil {
		t.Errorf("identical files: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), worse) || strings.Contains(out.String(), better) {
		t.Errorf("identical files should only be unchanged or unresolved:\n%s", out.String())
	}

	// On the same seed any slower virtual-clock result is a regression,
	// however small.
	out.Reset()
	err = compareFiles(sp, base, write("slow.json", scale("sim_MBps", 0.999)), &out)
	if !errors.Is(err, errWorse) {
		t.Errorf("0.1%% lower sim_MBps on the same seed: err = %v, want errWorse\n%s", err, out.String())
	}

	// A host metric may move within its bound, not beyond it.
	out.Reset()
	if err := compareFiles(sp, base, write("noise.json", scale("setup_s", 1.01)), &out); err != nil {
		t.Errorf("1%% slower set-up: %v\n%s", err, out.String())
	}
	out.Reset()
	err = compareFiles(sp, base, write("bloat.json", scale("host_alloc_MB", 1.5)), &out)
	if !errors.Is(err, errWorse) || !regexp.MustCompile(`host_alloc_MB\s+worse`).MatchString(out.String()) {
		t.Errorf("50%% more allocation: err = %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(sp, base, write("lean.json", scale("host_alloc_MB", 0.5)), &out); err != nil || !regexp.MustCompile(`host_alloc_MB\s+better`).MatchString(out.String()) {
		t.Errorf("50%% less allocation: err = %v\n%s", err, out.String())
	}
}
