package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// TestServeAnswersEveryPage runs `hlbench -quick -serve 127.0.0.1:0 -rounds
// 1` through main and, once the workload is done, asks every route: each
// page answers 200 with its content type and a body of its kind, and
// net/http/pprof answers under /debug/pprof/ (what `make profile` scrapes).
// An interrupt then stops the server, and hlbench exits 0.
func TestServeAnswersEveryPage(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-quick", "-serve", "127.0.0.1:0", "-rounds", "1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var base string
	for sc := bufio.NewScanner(stdout); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "serving "); ok {
			base = strings.Fields(rest)[0]
		}
		if strings.HasPrefix(sc.Text(), "workload complete") {
			break
		}
	}
	if base == "" {
		cmd.Wait()
		t.Fatalf("hlbench -serve printed no address:\n%s", stderr.Bytes())
	}
	for path, want := range map[string]string{
		"/metrics":      "text/plain; version=0.0.4; charset=utf-8",
		"/heatmap":      "application/json",
		"/decisions":    "application/json",
		"/requests":     "application/json",
		"/debug/pprof/": "text/html; charset=utf-8",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		ctype := resp.Header.Get("Content-Type")
		switch {
		case resp.StatusCode != http.StatusOK || ctype != want:
			t.Errorf("GET %s = %d, %q; want 200, %q", path, resp.StatusCode, ctype, want)
		case ctype == "application/json" && !json.Valid(body):
			t.Errorf("GET %s: body is not JSON:\n%s", path, body)
		case path == "/metrics" && !bytes.HasPrefix(body, []byte("# HELP hl_virtual_time_seconds")):
			t.Errorf("GET /metrics: not the metrics page:\n%s", body)
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("hlbench -serve after an interrupt: %v\n%s", err, stderr.Bytes())
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
