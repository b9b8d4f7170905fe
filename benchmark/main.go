// Command benchmark is the repository's two-clock performance benchmark:
// four closed-loop workloads at the paper's scale, eight end-to-end
// metrics on the virtual and the host clock, and a per-layer ledger read
// from outside the program. See README.md in this directory.
//
//	go run ./benchmark -workload largeobj            one workload
//	go run ./benchmark -workload all -json out.json  all four, one process each
//	go run ./benchmark -workload fetch -trace 1      traced pass, per-layer ledger
//	go run ./benchmark -compare a.json b.json        apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Seeds feed only the benchmark's generators. defaultSeed is the one the
// baseline in README.md was measured with; heldOutSeed is kept for checking a
// later claim on inputs it was not developed against.
const (
	defaultSeed = 1993
	heldOutSeed = 19930621
)

// spec is BENCHMARK.json, the contract the driver checks the benchmark
// against.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json at the repository root, whether the
// command runs from there (go run ./benchmark) or from this directory
// (go test).
func loadSpec() (sp *spec, root string, err error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		path := filepath.Join(root, "BENCHMARK.json")
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, "", fmt.Errorf("%s: %w", path, err)
		}
		return &s, root, nil
	}
	return nil, "", firstErr
}

// resultFile is what -json writes: one or more workloads' results and the
// machine they were measured on.
type resultFile struct {
	Env       map[string]string  `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func environment() map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	jsonOut  string
	scale    string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: largeobj, migrate, fetch, serve, or all")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("seed for the benchmark's input generators (held out for later claims: %d)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring budget in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer ledger")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full results to this file")
	flag.StringVar(&o.scale, "scale", "paper", "paper (section 7 sizes) or tiny (for tests)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("operations failed or returned wrong content")

func run(o options, args []string) error {
	sp, root, err := loadSpec()
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(sp, args[0], args[1], os.Stdout)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.scale != "paper" && o.scale != "tiny" {
		return fmt.Errorf("unknown -scale %q (paper or tiny)", o.scale)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, not %d", o.trace)
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.workload == "all" {
		return runAll(sp, o.jsonOut)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, runOpts{seed: o.seed, tiny: o.scale == "tiny", traced: o.trace == 1,
		seconds: o.seconds, traceOut: filepath.Join(root, "benchmark", "out")})
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if o.jsonOut != "" {
		if err := writeResults(o.jsonOut, map[string]*result{w.name: res}); err != nil {
			return err
		}
	}
	line, err := contractLine(sp, res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll re-executes this binary once per workload, so that peak RSS is
// per workload, passing the other flags through.
func runAll(sp *spec, jsonOut string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "json" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	merged := map[string]*result{}
	var failed error
	for _, w := range sp.Workloads {
		args := append([]string{"-workload", w.Name}, pass...)
		var tmp string
		if jsonOut != "" {
			f, err := os.CreateTemp(filepath.Dir(jsonOut), ".bench-*.json")
			if err != nil {
				return err
			}
			tmp = f.Name()
			f.Close()
			args = append(args, "-json", tmp)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = fmt.Errorf("workload %s: %w", w.Name, err)
		}
		if tmp != "" {
			if rf, err := readResults(tmp); err == nil { // a failed child is already reported
				for k, v := range rf.Workloads {
					merged[k] = v
				}
			}
			os.Remove(tmp)
		}
	}
	if jsonOut != "" {
		if err := writeResults(jsonOut, merged); err != nil {
			return err
		}
	}
	return failed
}

func writeResults(path string, ws map[string]*result) error {
	b, err := json.MarshalIndent(resultFile{Env: environment(), Workloads: ws}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// printResult prints every metric as "workload metric value unit", with
// quartiles and rep count for host metrics and the percentile and sample
// count for percentile metrics.
func printResult(w *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		val := fmt.Sprintf("%.6g", m.Value)
		if m.Note == "unvalidated" {
			val = "unvalidated"
		}
		line := fmt.Sprintf("%s %s %s %s", res.Workload, n, val, m.Unit)
		switch {
		case m.Note != "" && m.Note != "unvalidated":
			line += " (" + m.Note + ")"
		case m.N > 1 && (m.Q1 != 0 || m.Q3 != 0):
			line += fmt.Sprintf(" (q1=%.6g q3=%.6g reps=%d)", m.Q1, m.Q3, m.N)
		}
		if hostOverlaps(res.Workload, n) {
			line += " overlapping"
		}
		fmt.Fprintln(w, line)
	}
}

// hostOverlaps reports whether a *_host_ms span total can include other
// procs' work: a span stays open while its proc sleeps, and on every
// workload but the single-proc largeobj other procs run meanwhile.
func hostOverlaps(workload, metric string) bool {
	return workload != "largeobj" && strings.HasSuffix(metric, ".host_ms")
}

// contractLine renders the driver's result line: with tracing off every
// end-to-end metric of BENCHMARK.json, with tracing on every per-layer one.
func contractLine(sp *spec, res *result) (string, error) {
	want := sp.EndToEnd
	if res.Traced {
		want = sp.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, sm := range want {
		m, ok := res.Metrics[sm.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names metric %q, which workload %s did not produce", sm.Name, res.Workload)
		}
		out.Metrics[sm.Name] = mv{m.Value, sm.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
