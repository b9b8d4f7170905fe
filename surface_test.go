package repro

// The module's surface check: every exported identifier under internal/ has
// a caller in another package, and every name the docs put in backticks
// exists. It runs in `go test ./...` and in `make lint`, and reads the
// module with the standard library alone: `go list` for the package graph,
// go/parser and go/types for the source, and the compiler's export data for
// the standard library.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// surfaceAllow lists the exports that stay without a caller in another
// package, each with its reason. Keys are package paths below internal/
// followed by the name, with the receiver type for a method.
var surfaceAllow = map[string]string{
	"lfs.TypeFree":             "the on-media inode type of a free slot, named for the format",
	"svc.FrontEnd.SubmitAsync": "Submit's admission without the wait; svc's tests keep several requests in flight from one proc",
	"svc.Request.Wait":         "the wait Submit adds to SubmitAsync",
}

// surfaceDocs are the documents whose backticked names must resolve.
// CHANGES.md, EXPERIMENTS.md and ROADMAP.md are history and are not read.
// benchmark/ (its README and its Go comments) is not read either until the
// next change to the benchmark, which is frozen between such changes: its
// README still names stripe.Concat and stripe.Interleave, one stripe.Farm
// since the two farm drivers merged (ROADMAP.md item 2 lists the debt).
var surfaceDocs = []string{"DESIGN.md", "README.md"}

func TestSurface(t *testing.T) {
	start := time.Now()
	pkgs, err := goList(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var frozen []string
	for _, p := range pkgs {
		if strings.HasPrefix(p.ImportPath, "repro/benchmark") {
			frozen = append(frozen, p.Dir)
		}
	}
	std, err := stdExports(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := checkSurface("repro", pkgs, std, surfaceDocs, frozen, surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	t.Logf("surface check over %d packages took %v", len(pkgs), time.Since(start).Round(time.Millisecond))
}

// TestSurfaceFindsWhatItShould runs the check over a fixture module
// (testdata/surface) with one export no other package calls, one that is
// allow-listed, a method that satisfies an interface and a type that only
// appears in a called function's signature, and a document with one live
// and one dangling name: it must report exactly the uncalled export and the
// dangling name.
func TestSurfaceFindsWhatItShould(t *testing.T) {
	dir := filepath.Join("testdata", "surface")
	pkgs := []listedPkg{
		{Dir: filepath.Join(dir, "internal", "shape"), ImportPath: "fix/internal/shape",
			GoFiles: []string{"shape.go"}},
		{Dir: filepath.Join(dir, "cmd", "area"), ImportPath: "fix/cmd/area",
			GoFiles: []string{"main.go"}, Imports: []string{"fix/internal/shape"}},
	}
	allow := map[string]string{"shape.Allowed": "the fixture's allow-listed export"}
	findings, err := checkSurface("fix", pkgs, nil, []string{filepath.Join(dir, "DOC.md")}, nil, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"shape.Unused has no caller outside its package",
		filepath.Join(dir, "DOC.md") + ":4: `shape.Gone` names nothing in the module",
	}
	if !slices.Equal(findings, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(findings, "\n"), strings.Join(want, "\n"))
	}
}

// listedPkg is what the check reads of `go list -json`.
type listedPkg struct {
	Dir, ImportPath, Name, Export      string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
}

// goList runs `go list -json` in dir.
func goList(dir string, args ...string) ([]listedPkg, error) {
	// go test puts its own toolchain first on PATH, so the export data
	// matches the go/types this test is built with.
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v", args, err)
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// stdExports maps every standard package the module's code and tests import,
// and their dependencies, to the compiler's export data for it.
func stdExports(pkgs []listedPkg) (map[string]string, error) {
	module := map[string]bool{}
	for _, p := range pkgs {
		module[p.ImportPath] = true
	}
	need := map[string]bool{}
	for _, p := range pkgs {
		for _, list := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			for _, path := range list {
				if !module[path] {
					need[path] = true
				}
			}
		}
	}
	args := []string{"-export", "-deps"}
	for path := range need {
		args = append(args, path)
	}
	std, err := goList(".", args...)
	if err != nil {
		return nil, err
	}
	files := map[string]string{}
	for _, p := range std {
		files[p.ImportPath] = p.Export
	}
	return files, nil
}

// unit is one type-checked compilation of a package's code: the package,
// the package with its in-package tests, or its external tests.
type unit struct {
	owner string // import path of the package the code belongs to
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type surface struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]*listedPkg
	parsed map[string]*ast.File
	base   map[string]*unit // each package as importing packages see it
	units  []*unit          // the units whose references count
}

// checkSurface type-checks the module's packages with their tests and
// returns the findings of both rules, sorted: exports under internal/ that no
// other package refers to and allow does not list, allow entries that name
// nothing to excuse, and backticked names in the documents and in the Go
// comments (outside the skip directories) that resolve to nothing.
func checkSurface(module string, pkgs []listedPkg, std map[string]string, docs, skip []string, allow map[string]string) ([]string, error) {
	s := &surface{
		fset:   token.NewFileSet(),
		listed: map[string]*listedPkg{},
		parsed: map[string]*ast.File{},
		base:   map[string]*unit{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if std[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(std[path])
	})
	for i := range pkgs {
		s.listed[pkgs[i].ImportPath] = &pkgs[i]
	}
	for _, p := range pkgs {
		if _, err := s.load(p.ImportPath, s.base); err != nil {
			return nil, err
		}
	}
	for _, p := range pkgs {
		if err := s.checkWithTests(p.ImportPath); err != nil {
			return nil, err
		}
	}
	findings := s.callers(module, allow)
	names := s.names()
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		findings = append(findings, names.markdown(doc, string(text))...)
	}
	for _, u := range s.units {
		for _, f := range u.files {
			name := s.fset.Position(f.Package).Filename
			if !slices.ContainsFunc(skip, func(dir string) bool { return filepath.Dir(name) == dir }) {
				findings = append(findings, names.comments(s.fset, f)...)
			}
		}
	}
	slices.Sort(findings)
	return slices.Compact(findings), nil
}

func (s *surface) parse(p *listedPkg, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(p.Dir, name)
		if s.parsed[path] == nil {
			f, err := parser.ParseFile(s.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			s.parsed[path] = f
		}
		files = append(files, s.parsed[path])
	}
	return files, nil
}

// load type-checks path's non-test files as importing packages see them;
// memo holds the packages already checked for this import graph.
func (s *surface) load(path string, memo map[string]*unit) (*types.Package, error) {
	if u := memo[path]; u != nil {
		return u.pkg, nil
	}
	p := s.listed[path]
	if p == nil {
		return s.std.Import(path)
	}
	u, err := s.check(p, path, p.GoFiles, memo)
	if err != nil {
		return nil, err
	}
	memo[path] = u
	return u.pkg, nil
}

// check type-checks the named files of p's directory as package path,
// importing from memo.
func (s *surface) check(p *listedPkg, path string, names []string, memo map[string]*unit) (*unit, error) {
	files, err := s.parse(p, names)
	if err != nil {
		return nil, err
	}
	u := &unit{owner: strings.TrimSuffix(path, "_test"), files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(dep string) (*types.Package, error) { return s.load(dep, memo) }),
		Error:    func(err error) { errs = append(errs, err) },
	}
	u.pkg, _ = conf.Check(path, s.fset, files, u.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	return u, nil
}

// checkWithTests records the units of path: its code with its in-package
// tests, and its external tests, which import the package with those tests
// (and, as the go tool does, every package on the way rebuilt against it).
func (s *surface) checkWithTests(path string) error {
	p := s.listed[path]
	u := s.base[path]
	if len(p.TestGoFiles) > 0 {
		var err error
		if u, err = s.check(p, path, append(slices.Clip(p.GoFiles), p.TestGoFiles...), s.base); err != nil {
			return err
		}
	}
	s.units = append(s.units, u)
	if len(p.XTestGoFiles) == 0 {
		return nil
	}
	memo := s.base
	if len(p.TestGoFiles) > 0 {
		memo = map[string]*unit{path: u}
		for dep, du := range s.base {
			if dep != path && !s.imports(dep, path, map[string]bool{}) {
				memo[dep] = du
			}
		}
	}
	x, err := s.check(p, path+"_test", p.XTestGoFiles, memo)
	if err != nil {
		return err
	}
	s.units = append(s.units, x)
	return nil
}

// imports reports whether package from imports package to, directly or not.
func (s *surface) imports(from, to string, seen map[string]bool) bool {
	if seen[from] || s.listed[from] == nil {
		return false
	}
	seen[from] = true
	return slices.ContainsFunc(s.listed[from].Imports, func(dep string) bool {
		return dep == to || s.imports(dep, to, seen)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// objKey names obj as the allow-list does, from the package path: for a
// method, with its receiver's type name. Fields, and methods of interface
// literals, have no key.
func objKey(obj types.Object) string {
	name := obj.Name()
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			name = named.Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}

// callers applies the first rule.
func (s *surface) callers(module string, allow map[string]string) []string {
	internal := module + "/internal/"
	// Every object some package refers to from outside its own package,
	// by key: a package is type-checked more than once (with and without
	// its tests), so the same declaration has several objects.
	called := map[string]bool{}
	var ifaces []*types.Interface
	for _, u := range s.units {
		for _, obj := range u.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != u.owner && obj.Pkg().Path() != u.owner+"_test" && objKey(obj) != "" {
				called[objKey(obj)] = true
			}
		}
		for _, tv := range u.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range u.pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}

	// A type that appears in what a called or allow-listed export takes,
	// returns or holds needs no caller of its own, nor does an Err sentinel
	// of a package whose called functions return errors.
	reached := map[string]bool{}
	errs := map[*types.Package]bool{}
	var mark func(t types.Type)
	mark = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if t.Obj().Pkg() != nil && !reached[objKey(t.Obj())] {
				reached[objKey(t.Obj())] = true
				mark(t.Underlying())
			}
		case *types.Pointer:
			mark(t.Elem())
		case *types.Slice:
			mark(t.Elem())
		case *types.Array:
			mark(t.Elem())
		case *types.Map:
			mark(t.Key())
			mark(t.Elem())
		case *types.Chan:
			mark(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					mark(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					mark(t.Field(i).Type())
				}
			}
		}
	}
	var decls []types.Object
	for path, u := range s.base {
		pkg := u.pkg
		if !strings.HasPrefix(path, internal) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			decls = append(decls, obj)
			if _, ok := obj.(*types.TypeName); !ok {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					decls = append(decls, m)
				}
			}
		}
	}
	kept := func(obj types.Object) bool {
		return called[objKey(obj)] || allow[strings.TrimPrefix(objKey(obj), internal)] != ""
	}
	for _, obj := range decls {
		if !kept(obj) {
			continue
		}
		if _, ok := obj.(*types.TypeName); ok {
			mark(obj.Type().Underlying())
			continue
		}
		mark(obj.Type())
		if sig, ok := obj.Type().(*types.Signature); ok {
			for i := 0; i < sig.Results().Len(); i++ {
				if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
					errs[obj.Pkg()] = true
				}
			}
		}
	}

	var findings []string
	excused := map[string]bool{}
	for _, obj := range decls {
		key := objKey(obj)
		if called[key] || reached[key] || satisfies(obj, byMethod) {
			continue
		}
		if _, ok := obj.(*types.Var); ok && strings.HasPrefix(obj.Name(), "Err") && errs[obj.Pkg()] {
			continue
		}
		short := strings.TrimPrefix(key, internal)
		if allow[short] != "" {
			excused[short] = true
			continue
		}
		findings = append(findings, short+" has no caller outside its package")
	}
	for name := range allow {
		if !excused[name] {
			findings = append(findings, fmt.Sprintf("allow-list: %s needs no entry (called, exempt or gone)", name))
		}
	}
	return findings
}

// satisfies reports whether obj is a method that some interface the module
// sees names, on a type that implements that interface.
func satisfies(obj types.Object, byMethod map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range byMethod[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// docNames resolves backticked names against the module.
type docNames struct {
	pkgs  map[string][]*types.Package  // by package name: each unit's package
	types map[string][]*types.TypeName // by type name: the module's and its imports'
}

func (s *surface) names() *docNames {
	d := &docNames{pkgs: map[string][]*types.Package{}, types: map[string][]*types.TypeName{}}
	for _, u := range s.units {
		if name := strings.TrimSuffix(u.pkg.Name(), "_test"); name != "main" {
			d.pkgs[name] = append(d.pkgs[name], u.pkg)
		}
		for _, pkg := range append(u.pkg.Imports(), u.pkg) {
			for _, n := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
					d.types[n] = append(d.types[n], tn)
				}
			}
		}
	}
	return d
}

// docName matches a code span that is a name: pkg.Name, pkg.Type.Member,
// Type.Member or (*pkg.Type).Member, with an optional call's parentheses.
var docName = regexp.MustCompile(`^(?:\(\*)?([A-Za-z_]\w*)\.([A-Za-z_]\w*)\)?(?:\.([A-Za-z_]\w*))?(?:\([^()]*\))?$`)

var codeSpan = regexp.MustCompile("`([^`]+)`")

// resolves reports whether a code span names something that exists; a span
// that is not shaped as a name, or whose first part is neither a module
// package nor a type name, is not a name and resolves.
func (d *docNames) resolves(span string) bool {
	m := docName.FindStringSubmatch(span)
	if m == nil {
		return true
	}
	first, second, third := m[1], m[2], m[3]
	if pkgs := d.pkgs[first]; pkgs != nil {
		for _, pkg := range pkgs {
			obj := pkg.Scope().Lookup(second)
			if third == "" && (obj != nil || hasMember(pkg, pkg.Scope().Names(), second)) {
				return true
			}
			// pkg.name in lower case is as often a metric or span name
			// (`svc.queue`, `lfs.buf_hit_rate`) as a Go name.
			if third == "" && !token.IsExported(second) {
				return true
			}
			if tn, ok := obj.(*types.TypeName); ok && third != "" && member(tn, third) {
				return true
			}
		}
		return false
	}
	if tns := d.types[first]; tns != nil && third == "" {
		return slices.ContainsFunc(tns, func(tn *types.TypeName) bool { return member(tn, second) })
	}
	// Type.Member with no type of that name: a name only when both parts
	// read as exported Go identifiers (not README.md or BENCH_0.json).
	return third != "" || !token.IsExported(first) || !token.IsExported(second) || strings.ToUpper(first) == first
}

func hasMember(pkg *types.Package, names []string, name string) bool {
	return slices.ContainsFunc(names, func(n string) bool {
		tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
		return ok && member(tn, name)
	})
}

// member reports whether tn's type has a field or method called name.
func member(tn *types.TypeName, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
	return obj != nil
}

// markdown returns the dangling names of a Markdown document, outside its
// fenced code blocks.
func (d *docNames) markdown(path, text string) []string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		}
		if fenced || strings.HasPrefix(strings.TrimSpace(line), "```") {
			lines[i] = ""
		}
	}
	return d.spans(path, 1, strings.Join(lines, "\n"))
}

// comments returns the dangling names of f's comments.
func (d *docNames) comments(fset *token.FileSet, f *ast.File) []string {
	var findings []string
	for _, cg := range f.Comments {
		var text []string
		for _, c := range cg.List {
			text = append(text, c.Text[2:])
		}
		pos := fset.Position(cg.Pos())
		findings = append(findings, d.spans(pos.Filename, pos.Line, strings.Join(text, "\n"))...)
	}
	return findings
}

// spans returns the dangling names among text's code spans; text starts at
// line first of path, and a span may run across lines.
func (d *docNames) spans(path string, first int, text string) []string {
	var findings []string
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
		if !d.resolves(span) {
			line := first + strings.Count(text[:m[0]], "\n")
			findings = append(findings, fmt.Sprintf("%s:%d: `%s` names nothing in the module", path, line, span))
		}
	}
	return findings
}
