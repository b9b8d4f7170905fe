package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// runMainEnv makes the test binary behave as hlbench itself, so the goldens
// exercise main() — flag parsing, table selection, exporters — with no
// separate build step.
const runMainEnv = "HLBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenOutput pins hlbench's output byte for byte. The simulator runs
// on virtual time, so every table, ablation and exported file is a pure
// function of the code: any diff here is a behaviour change. The goldens
// were captured from the build before the harness was rewritten around the
// cell table; seven of the eleven ablations are in no BENCH_*.json snapshot,
// so this is the only exact gate on them.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name string // testdata/<name>.golden holds stdout
		args []string
		file string // exported file, compared with testdata/<name>.json.golden
	}{
		{name: "quick", args: []string{"-quick"}},
		{name: "quick_ablations", args: []string{"-quick", "-ablations"}},
		{name: "full"},
		{name: "quick_clients8", args: []string{"-quick", "-clients", "8"}},
		{name: "requests", args: []string{"-requests", "requests.json"}, file: "requests.json"},
		{name: "quick_trace", args: []string{"-quick", "-trace", "trace.json"}, file: "trace.json"},
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cmd := exec.Command(exe, c.args...)
			cmd.Dir = dir // exported files are named relative to it, so stdout does not vary
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("hlbench %v: %v\n%s", c.args, err, stderr.Bytes())
			}
			compareGolden(t, filepath.Join("testdata", c.name+".golden"), stdout)
			if c.file != "" {
				got, err := os.ReadFile(filepath.Join(dir, c.file))
				if err != nil {
					t.Fatal(err)
				}
				compareGolden(t, filepath.Join("testdata", c.name+".json.golden"), got)
			}
		})
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	line := 1 + bytes.Count(got[:commonPrefix(got, want)], []byte("\n"))
	t.Errorf("%s: output differs from the golden at line %d (%d bytes, want %d); if the change is intended, rerun with -update",
		path, line, len(got), len(want))
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
