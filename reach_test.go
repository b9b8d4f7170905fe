package repro

// The module's reach check: every function or method with a body under
// internal/ is linked into one of the module's programs, or is reached from an
// allow-listed one. A test does not count as a caller here, as it does in the
// surface check. The linker decides: `go build -gcflags=all=-l
// -ldflags=-dumpdep` prints every symbol it keeps, with the edge that kept it,
// and inlining is off so that a function the compiler would inline still
// shows as a symbol of its own.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// reachAllow lists the functions under internal/ that no program links, each
// with its reason. Keys are package paths below internal/ followed by the
// name, with the receiver type for a method, as surfaceAllow's are. A key may
// name a type: every method of that type is then excused for the one reason.
// Each entry must be exported, since the check links the entries as one more
// program; what only they reach counts as reached.
var reachAllow = map[string]string{
	"core.HighLight.Stats":              "core's export data carries the bodies of Cache.Stats and Service.Stats because this calls them, so the frozen benchmark inlines them; deleting it changes the benchmark binary (ROADMAP item 2(b))",
	"dev.HandOvers":                     "the hand-over audit, which only the tests of dev, stripe, lfs and crash switch on and check (Check); the data path links Record",
	"fault.Plan":                        "the outage API (Start, AddOutage, AddLibraryOutage, DeviceCounts) the chaos and soak tests of core, svc, migrate and tertiary drive",
	"jukebox.Jukebox.IdleHealthyDrives": "the frozen benchmark's probe asserts it (ROADMAP item 2(b))",
	"jukebox.Jukebox.SegmentBytes":      "the frozen benchmark's TestSeamsForwardCapabilities sizes its buffer by it (ROADMAP item 2(b))",
	"jukebox.Jukebox.SetActualSegments": "§6.3's compression shortfall; the crash matrix and the end-of-medium tests of core and tertiary set it",
	"jukebox.Library.IdleHealthyDrives": "the frozen benchmark's TestSeamsForwardCapabilities checks the decorator forwards it (ROADMAP item 2(b))",
	"jukebox.Library.WriteSegment":      "Footprint's write, which the frozen benchmark's TestSeamsForwardCapabilities calls (ROADMAP item 2(b))",
}

// reachRoots is the directory, below the module root, of the program that
// links the allow-listed functions. It exists only in the build's overlay.
const reachRoots = "reachroots"

func TestReach(t *testing.T) {
	start := time.Now()
	r, err := checkReach(".", "repro", reachAllow, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.findings {
		t.Error(f)
	}
	t.Logf("reach check: %d programs link %d of %d functions under internal/; the allow-list keeps %d more (%d lines); took %v",
		r.programs, r.linked, r.funcs, r.allowed, r.allowedLines, time.Since(start).Round(time.Millisecond))
}

// TestReachFindsWhatItShould runs the check over a fixture module
// (testdata/reach) whose program calls one function and reaches a method only
// through an interface, beside a function nothing calls and an allow-listed
// one with a helper only it calls: it must report exactly the uncalled one.
func TestReachFindsWhatItShould(t *testing.T) {
	allow := map[string]string{"shape.Allowed": "the fixture's allow-listed function"}
	r, err := checkReach(filepath.Join("testdata", "reach"), "fix", allow, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shape.Unused is linked by no program (" + filepath.Join("internal", "shape", "shape.go") + ":20, 1 lines)"}
	if !slices.Equal(r.findings, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(r.findings, "\n"), strings.Join(want, "\n"))
	}
	if r.funcs != 5 || r.linked != 2 || r.allowed != 2 {
		t.Errorf("%d functions, %d linked, %d allowed; want 5, 2 and 2", r.funcs, r.linked, r.allowed)
	}
}

// reachFunc is one function or method with a body under internal/.
type reachFunc struct {
	key     string   // as the allow-list names it: shape.Square.Area
	recv    string   // the receiver's type name, or ""
	symbols []string // the linker's names for it; any one reached will do
	pos     string   // file:line, relative to the module root
	lines   int
	pkg     string // import path
}

type reachResult struct {
	findings                                       []string
	programs, funcs, linked, allowed, allowedLines int
}

// checkReach builds every main package of the module in dir, plus a program
// that links allow's entries, and returns the functions under internal/ that
// none of them links, and the allow entries that are not needed or cannot be
// linked. tmp receives the binaries and the overlay.
func checkReach(dir, module string, allow map[string]string, tmp string) (*reachResult, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := goList(abs, "./...")
	if err != nil {
		return nil, err
	}
	internal := module + "/internal/"
	var mains []string
	var funcs []*reachFunc
	fset := token.NewFileSet()
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
		if !strings.HasPrefix(p.ImportPath, internal) {
			continue
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(abs, path)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				// An init function runs whenever its package is linked.
				if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				funcs = append(funcs, newReachFunc(fset, p.ImportPath, internal, rel, fd))
			}
		}
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no main package under %s", dir)
	}
	byKey := map[string][]*reachFunc{}
	for _, fn := range funcs {
		byKey[fn.key] = append(byKey[fn.key], fn)
		if fn.recv != "" {
			byKey[fn.typeKey()] = append(byKey[fn.typeKey()], fn)
		}
	}

	r := &reachResult{programs: len(mains), funcs: len(funcs)}
	var roots []*reachFunc
	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		fns := byKey[key]
		if len(fns) == 0 {
			r.findings = append(r.findings, fmt.Sprintf("allow-list: %s names no function or type under internal/", key))
			continue
		}
		n := len(roots)
		for _, fn := range fns {
			if token.IsExported(fn.name()) && (fn.recv == "" || token.IsExported(fn.recv)) {
				roots = append(roots, fn)
			}
		}
		if len(roots) == n {
			r.findings = append(r.findings, fmt.Sprintf("allow-list: %s is not exported, so no program can link it", key))
		}
	}
	progs := slices.Clone(mains)
	var flags []string
	if len(roots) > 0 {
		overlay, err := writeRoots(abs, tmp, roots)
		if err != nil {
			return nil, err
		}
		flags = append(flags, "-overlay", overlay)
		progs = append(progs, module+"/"+reachRoots)
	}

	// One build of every program: the go command heads each link's output
	// with "# " and the package's import path.
	args := append([]string{"build"}, flags...)
	args = append(args, "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", filepath.Join(tmp, "bin")+string(filepath.Separator))
	cmd := exec.Command("go", append(args, progs...)...)
	cmd.Dir = abs
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -ldflags=-dumpdep: %v\n%s", err, tail(stderr.String(), 40))
	}
	linked, rooted := map[string]bool{}, map[string]bool{}
	set := linked
	for _, line := range strings.Split(stderr.String(), "\n") {
		if prog, ok := strings.CutPrefix(line, "# "); ok {
			set = linked
			if prog == module+"/"+reachRoots {
				set = rooted
			}
			continue
		}
		if _, to, ok := strings.Cut(line, " -> "); ok && strings.HasPrefix(to, internal) {
			set[linkerName(to)] = true
		}
	}
	if len(linked) == 0 {
		return nil, fmt.Errorf("the dump of %d programs parsed to no symbol under %s", len(mains), internal)
	}

	reached := func(fn *reachFunc, set map[string]bool) bool {
		return slices.ContainsFunc(fn.symbols, func(s string) bool { return set[s] })
	}
	needed := map[string]bool{}
	for _, fn := range funcs {
		switch {
		case reached(fn, linked):
			r.linked++
		case reached(fn, rooted):
			r.allowed++
			r.allowedLines += fn.lines
			needed[fn.key] = true
			if fn.recv != "" {
				needed[fn.typeKey()] = true
			}
		default:
			r.findings = append(r.findings, fmt.Sprintf("%s is linked by no program (%s, %d lines)", fn.key, fn.pos, fn.lines))
		}
	}
	for _, key := range keys {
		if len(byKey[key]) > 0 && !needed[key] {
			r.findings = append(r.findings, fmt.Sprintf("allow-list: %s needs no entry (a program links it)", key))
		}
	}
	slices.Sort(r.findings)
	return r, nil
}

func (fn *reachFunc) name() string { return fn.key[strings.LastIndex(fn.key, ".")+1:] }

// typeKey is the allow-list's key for a method's receiver type.
func (fn *reachFunc) typeKey() string { return fn.key[:strings.LastIndex(fn.key, ".")] }

func newReachFunc(fset *token.FileSet, pkg, internal, file string, fd *ast.FuncDecl) *reachFunc {
	start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
	fn := &reachFunc{
		pos:   fmt.Sprintf("%s:%d", file, start.Line),
		lines: end.Line - start.Line + 1,
		pkg:   pkg,
	}
	short := strings.TrimPrefix(pkg, internal)
	if fd.Recv == nil {
		fn.key = short + "." + fd.Name.Name
		fn.symbols = []string{pkg + "." + fd.Name.Name}
		return fn
	}
	t := fd.Recv.List[0].Type
	star, ok := t.(*ast.StarExpr)
	if ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	fn.recv = t.(*ast.Ident).Name
	fn.key = short + "." + fn.recv + "." + fd.Name.Name
	// A value method called through a pointer is reached through its
	// pointer wrapper, which calls it.
	fn.symbols = []string{pkg + ".(*" + fn.recv + ")." + fd.Name.Name}
	if star == nil {
		fn.symbols = append(fn.symbols, pkg+"."+fn.recv+"."+fd.Name.Name)
	}
	return fn
}

// shapeArgs matches the innermost bracketed type arguments of an
// instantiation, which the linker names by shape: F[go.shape.int].
var shapeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// linkerName strips a dumped symbol of the flags the dump appends and of its
// type arguments.
func linkerName(sym string) string {
	if i := strings.Index(sym, " <"); i >= 0 {
		sym = sym[:i]
	}
	for {
		next := shapeArgs.ReplaceAllString(sym, "")
		if next == sym {
			return sym
		}
		sym = next
	}
}

// writeRoots writes the program that links roots and an overlay that puts it
// at reachRoots below the module root, and returns the overlay's path.
func writeRoots(abs, tmp string, roots []*reachFunc) (string, error) {
	if _, err := os.Stat(filepath.Join(abs, reachRoots)); err == nil {
		return "", fmt.Errorf("%s exists; the reach check builds a program there", filepath.Join(abs, reachRoots))
	}
	var imports, refs strings.Builder
	aliases := map[string]string{}
	for _, fn := range roots {
		alias := aliases[fn.pkg]
		if alias == "" {
			alias = fmt.Sprintf("p%d", len(aliases))
			aliases[fn.pkg] = alias
			fmt.Fprintf(&imports, "\t%s %q\n", alias, fn.pkg)
		}
		if fn.recv == "" {
			fmt.Fprintf(&refs, "\t%s.%s,\n", alias, fn.name())
		} else {
			fmt.Fprintf(&refs, "\t(*%s.%s).%s,\n", alias, fn.recv, fn.name())
		}
	}
	src := fmt.Sprintf("package main\n\nimport (\n%s)\n\nvar roots = []any{\n%s}\n\nfunc main() { println(len(roots)) }\n", imports.String(), refs.String())
	main := filepath.Join(tmp, "roots.go")
	if err := os.WriteFile(main, []byte(src), 0o644); err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(abs, reachRoots, "main.go"): main},
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(tmp, "overlay.json")
	return path, os.WriteFile(path, overlay, 0o644)
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}
