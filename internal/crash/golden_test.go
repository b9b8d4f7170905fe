package crash

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dev"
)

var updateMatrix = flag.Bool("update", false, "rewrite testdata/matrix.golden from this build's crash matrices")

const matrixGolden = "testdata/matrix.golden"

// rigs are the pinned crash rigs, by their name in testdata/matrix.golden and
// in the golden's order: the serial and the two-stream pipeline, each with the
// 8-block write cache and write-through (the benchmark's configuration).
var rigs = []struct {
	name string
	cfg  func() config
}{
	{"default", defaultConfig},
	{"streams", streamsConfig},
	{"default-wt", func() config { return writeThrough(defaultConfig()) }},
	{"streams-wt", func() config { return writeThrough(streamsConfig()) }},
}

// writeThrough is cfg with no volatile write cache.
func writeThrough(cfg config) config {
	cfg.WriteCacheBlocks = 0
	return cfg
}

// rigConfig returns the config of the rig called name.
func rigConfig(t *testing.T, name string) config {
	t.Helper()
	for _, r := range rigs {
		if r.name == name {
			return r.cfg()
		}
	}
	t.Fatalf("no rig %q", name)
	return config{}
}

// checkMatrix runs the crash matrix of the rig called name at cutsPerPhase
// cuts a phase and demands what every matrix must show: every phase cut
// cutsPerPhase times, no durability violation and no fsck problem at any cut,
// and each cut's phase, event and digest as matrix.golden holds them (with
// -update, it rewrites the rig's lines instead).
func checkMatrix(t *testing.T, name string) *report {
	t.Helper()
	rep, err := runMatrix(rigConfig(t, name), cutsPerPhase)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) < 40 {
		t.Fatalf("matrix ran %d cuts, want >= 40", len(rep.Outcomes))
	}
	phases := map[string]int{}
	var lines []string
	for _, o := range rep.Outcomes {
		phases[o.Phase]++
		for _, v := range o.Violations {
			t.Errorf("cut at event %d (%s): %s", o.Event, o.Phase, v)
		}
		if o.FsckProblems > 0 {
			t.Errorf("cut at event %d (%s): %d fsck problems", o.Event, o.Phase, o.FsckProblems)
		}
		lines = append(lines, goldenLine(name, o))
	}
	for _, ph := range phaseNames() {
		if phases[ph] < cutsPerPhase {
			t.Errorf("phase %q got %d cuts, want %d", ph, phases[ph], cutsPerPhase)
		}
	}
	if *updateMatrix {
		updateGolden(t, name, lines)
	}
	want := golden(t, name)
	for i := 0; i < len(lines) && i < len(want); i++ {
		if lines[i] != want[i] {
			t.Errorf("cut %d: got %q, golden %q", i, lines[i], want[i])
		}
	}
	if len(lines) != len(want) {
		t.Errorf("matrix ran %d cuts, golden has %d", len(lines), len(want))
	}
	if t.Failed() {
		t.Logf("phase spans: %+v", rep.Phases)
	}
	return rep
}

// goldenLine is a cut's line in matrix.golden: rig, phase, event, digest.
func goldenLine(rig string, o *outcome) string {
	return fmt.Sprintf("%s %s %d %s", rig, o.Phase, o.Event, o.Digest)
}

// golden returns the lines matrix.golden holds for the rig called name (none
// when -update writes the first golden).
func golden(t *testing.T, name string) []string {
	t.Helper()
	data, err := os.ReadFile(matrixGolden)
	if err != nil && !(*updateMatrix && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, name+" ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// updateGolden replaces the rig's lines in matrix.golden with lines, keeping
// the other rigs' and the rigs' order.
func updateGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	var out strings.Builder
	for _, r := range rigs {
		keep := lines
		if r.name != name {
			keep = golden(t, r.name)
		}
		for _, line := range keep {
			out.WriteString(line + "\n")
		}
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(matrixGolden, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkByReference is checkMatrix of a write-through rig under an audit of its
// own, which must come out clean and show that the cuts landed on the
// by-reference data path the benchmark runs: kept writes, shared reads and
// lent views were recorded.
func checkByReference(t *testing.T, name string) {
	t.Helper()
	audit := dev.Audit
	dev.Audit = &dev.HandOvers{}
	defer func() { dev.Audit = audit }()
	checkMatrix(t, name)
	if err := dev.Audit.Check(); err != nil {
		t.Error(err)
	}
	sites := handedOver(dev.Audit)
	for _, site := range []string{"dev: kept write", "dev: shared read", "dev: lent view"} {
		if sites[site] == 0 {
			t.Errorf("the matrix recorded no %s: its cuts missed the by-reference path", site)
		}
	}
	t.Logf("hand-overs recorded: %v", sites)
}

// handedOver counts h's records by the site that handed the bytes over. The
// audit exports only Record and Check, so this reads its record list, a
// test's look at unexported fields that it fails loudly when they move.
func handedOver(h *dev.HandOvers) map[string]int {
	n := map[string]int{}
	list := reflect.ValueOf(h).Elem().FieldByName("list")
	for i := range list.Len() {
		n[list.Index(i).FieldByName("site").String()]++
	}
	return n
}
