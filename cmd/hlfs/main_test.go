package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/session.golden from this build's output")

// runMainEnv makes the test binary behave as hlfs itself, so the golden
// exercises main() — flag parsing, image load and save, every command's
// output — with no separate build step.
const runMainEnv = "HLFS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// session is one scripted life of an image: write, migrate, eject and read
// back through a demand fetch, then a second file migrated, its volume
// cleaned and the file read back, ending with the status report and a
// consistency check. Every command remounts the image, so each one rebuilds
// the cache directory from the segment usage table; the last get is the
// last checkpoint, taken with lines bound at its mount, so a remount that
// rewrites a binding it found shows in disk.img.
var session = [][]string{
	{"init", "-disk-segs", "40", "-cache-segs", "6"},
	{"put", "a.dat", "/a"},
	{"migrate", "-min-age", "0"},
	{"eject"},
	{"get", "/a", "a.out"},
	{"put", "b.dat", "/b"},
	{"migrate", "-min-age", "0"},
	{"cleanvolume", "0", "0"},
	{"get", "/b", "b.out"},
	{"info"},
	{"fsck"},
}

// pattern returns n bytes that differ from block to block, so a block read
// from the wrong place does not pass for the right one.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>12) ^ byte(i*7) ^ seed
	}
	return b
}

// runSession runs the session in a fresh directory with a relative -img, so
// stdout does not name the directory, and returns each command's stdout
// followed by the sha256 of every image file.
func runSession(t *testing.T, exe string) []byte {
	t.Helper()
	dir := t.TempDir()
	want := map[string][]byte{"a": pattern(3<<20, 0x5a), "b": pattern(3<<19, 0xc3)}
	for name, data := range want {
		if err := os.WriteFile(filepath.Join(dir, name+".dat"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	for _, args := range session {
		fmt.Fprintf(&out, "$ hlfs %s\n", strings.Join(args, " "))
		out.Write(hlfs(t, exe, dir, args...))
	}
	for name, data := range want {
		if got, err := os.ReadFile(filepath.Join(dir, name+".out")); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get /%s returned other bytes than put wrote (err %v)", name, err)
		}
	}
	for _, name := range []string{"config.json", "disk.img", "juke.img"} {
		b, err := os.ReadFile(filepath.Join(dir, "img", name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "sha256 %x  %s\n", sha256.Sum256(b), name)
	}
	return out.Bytes()
}

// hlfs runs one command against the image img under dir and returns its
// stdout.
func hlfs(t *testing.T, exe, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(exe, append([]string{"-img", "img"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("hlfs %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout
}

// TestTruncate: a file truncated inside a block, remounted, reads back as
// the prefix of what was put.
func TestTruncate(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := pattern(1<<20, 0x3c)
	if err := os.WriteFile(filepath.Join(dir, "a.dat"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	const size = 5*4096 + 100
	hlfs(t, exe, dir, "init", "-disk-segs", "40", "-cache-segs", "6")
	hlfs(t, exe, dir, "put", "a.dat", "/a")
	hlfs(t, exe, dir, "truncate", "/a", fmt.Sprint(size))
	hlfs(t, exe, dir, "get", "/a", "a.out")
	if got, err := os.ReadFile(filepath.Join(dir, "a.out")); err != nil || !bytes.Equal(got, data[:size]) {
		t.Fatalf("get after truncate: %d bytes, err %v; want the first %d bytes put", len(got), err, size)
	}
	if out := hlfs(t, exe, dir, "fsck"); !bytes.Contains(out, []byte(" 0 problems")) {
		t.Fatalf("fsck after truncate:\n%s", out)
	}
}

// TestSessionGolden pins the session's output and the images it leaves byte
// for byte. Virtual time makes both a pure function of the code, so a diff is
// a behaviour change: in the on-media format, the write schedule, or what a
// remount writes back. A second session in another directory must leave the
// same bytes.
func TestSessionGolden(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	first := runSession(t, exe)
	compareGolden(t, filepath.Join("testdata", "session.golden"), first)
	if second := runSession(t, exe); !bytes.Equal(first, second) {
		t.Errorf("a second session in another directory differs:\n%s\nfirst:\n%s", second, first)
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
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden; if the change is intended, rerun with -update\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
