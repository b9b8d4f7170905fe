package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefilePatterns checks that every alternative of a -run, -bench or
// -fuzz pattern on the Makefile's `go test` lines matches a test, benchmark
// or fuzz target of the package that line names: a pattern whose test was
// renamed or deleted would otherwise run nothing, and pass.
func TestMakefilePatterns(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		args := shellWords(strings.ReplaceAll(line, "$$", "$"))
		if len(args) < 2 || args[0] != "$(GO)" || args[1] != "test" {
			continue
		}
		var dirs []string
		flags := map[string]string{}
		for j := 2; j < len(args); j++ {
			switch a := args[j]; {
			case (a == "-run" || a == "-bench" || a == "-fuzz") && j+1 < len(args):
				flags[a] = args[j+1]
				j++
			case strings.HasPrefix(a, "."): // the Makefile names packages by relative path
				dirs = append(dirs, a)
			}
		}
		for flag, pattern := range flags {
			prefixes := map[string][]string{"-run": {"Test", "Example", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}[flag]
			names, err := testFuncs(dirs, prefixes)
			if err != nil {
				t.Fatalf("Makefile:%d: %v", i+1, err)
			}
			stale, n, err := unmatched(pattern, names)
			if err != nil {
				t.Fatalf("Makefile:%d: %s: %v", i+1, flag, err)
			}
			for _, alt := range stale {
				t.Errorf("Makefile:%d: %s alternative %q matches no function in %s", i+1, flag, alt, strings.Join(dirs, " "))
			}
			checked += n
		}
	}
	if checked == 0 {
		t.Fatal("found no -run, -bench or -fuzz pattern in the Makefile")
	}
}

// TestMakefilePatternsExpandGroups checks that each member of a group is
// checked on its own, so one stale member fails the check even though its
// group as a whole still matches a function.
func TestMakefilePatternsExpandGroups(t *testing.T) {
	got := alternatives(`^Test(Surface|Re(ach|ad))|Bench(A|B)x/sub`)
	want := []string{"^Test(?:Surface)", "^Test(?:Re(?:ach))", "^Test(?:Re(?:ad))", "Bench(?:A)x", "Bench(?:B)x"}
	if !slices.Equal(got, want) {
		t.Fatalf("alternatives = %q, want %q", got, want)
	}
	names := []string{"TestSurface", "TestReach", "BenchAx"}
	stale, n, err := unmatched(`^Test(Surface|Reach|Gone)|Bench(A|B)x`, names)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"^Test(?:Gone)", "Bench(?:B)x"}; !slices.Equal(stale, want) || n != 5 {
		t.Fatalf("unmatched = %q of %d, want %q of 5", stale, n, want)
	}
}

// shellWords splits a recipe line into words, keeping single-quoted text
// whole.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	in, quoted := false, false
	for _, r := range strings.TrimSpace(line) {
		switch {
		case r == '\'':
			quoted, in = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if in {
				words = append(words, w.String())
				w.Reset()
			}
			in = false
		default:
			w.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, w.String())
	}
	return words
}

// unmatched returns the alternatives of pattern that match none of names,
// and how many alternatives it checked.
func unmatched(pattern string, names []string) ([]string, int, error) {
	var stale []string
	n := 0
	for _, alt := range alternatives(pattern) {
		if alt == "^$" { // runs nothing on purpose
			continue
		}
		re, err := regexp.Compile(alt)
		if err != nil {
			return nil, 0, fmt.Errorf("%q: %v", alt, err)
		}
		if !slices.ContainsFunc(names, re.MatchString) {
			stale = append(stale, alt)
		}
		n++
	}
	return stale, n, nil
}

// alternatives expands a test pattern into one regexp per name it is meant
// to match. It drops the subtest part after a top-level slash, splits at
// the top-level bars and then, for every parenthesised group with bars,
// substitutes each member in turn: 'Disk(Write|Read)1MB' yields
// 'Disk(?:Write)1MB' and 'Disk(?:Read)1MB', so a stale member of a group
// is caught too. Escaped characters are skipped; character classes are not
// parsed, and the Makefile uses none.
func alternatives(pattern string) []string {
	depth := 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			depth--
		case '/':
			if depth == 0 {
				return alternatives(pattern[:i])
			}
		}
	}
	var alts []string
	for _, alt := range splitBars(pattern) {
		alts = append(alts, expandGroups(alt, 0)...)
	}
	return alts
}

// expandGroups expands the groups of re that open at or after byte from.
func expandGroups(re string, from int) []string {
	open := strings.IndexByte(re[from:], '(')
	if open < 0 {
		return []string{re}
	}
	open += from
	if open > 0 && re[open-1] == '\\' {
		return expandGroups(re, open+1)
	}
	depth := 0
	for i := open; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			if depth--; depth > 0 {
				continue
			}
			members := splitBars(re[open+1 : i])
			if len(members) == 1 {
				return expandGroups(re, open+1)
			}
			var alts []string
			for _, m := range members {
				alts = append(alts, expandGroups(re[:open]+"(?:"+m+")"+re[i+1:], open+1)...)
			}
			return alts
		}
	}
	return []string{re} // unbalanced: regexp.Compile reports it
}

// splitBars splits s at its top-level bars.
func splitBars(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// testFuncs returns the names of the functions with one of prefixes that
// the test files of dirs declare.
func testFuncs(dirs, prefixes []string) ([]string, error) {
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				for _, p := range prefixes {
					if strings.HasPrefix(fd.Name.Name, p) {
						names = append(names, fd.Name.Name)
					}
				}
			}
		}
	}
	return names, nil
}
