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

// runMainEnv makes the test binary behave as hldump itself, so the goldens
// exercise main() — flag parsing, the demo instances, every section's
// renderer — with no separate build step.
const runMainEnv = "HLDUMP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenOutput pins hldump's output byte for byte: every section with no
// flags (among them the power-cut and remount of the recovery demo), and the
// decision chain of one tertiary segment after a cleaner pass. The demos run
// on virtual time, so a diff is a behaviour change; a second run must print
// the same bytes.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name string // testdata/<name>.golden holds stdout
		args []string
	}{
		{name: "all"},
		{name: "why1", args: []string{"-why", "1"}},
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := runMain(t, exe, c.args)
			compareGolden(t, filepath.Join("testdata", c.name+".golden"), first)
			if second := runMain(t, exe, c.args); !bytes.Equal(first, second) {
				t.Errorf("hldump %v: a second run printed other bytes", c.args)
			}
		})
	}
}

func runMain(t *testing.T, exe string, args []string) []byte {
	t.Helper()
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil || stderr.Len() > 0 {
		t.Fatalf("hldump %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout
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
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden; if the change is intended, rerun with -update\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
