package provio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWorkflowSelectorsNameTests holds every `go test` line in the CI
// workflows and the Makefile to the tests it claims to run: each alternative
// of a -run pattern must match a Test, Fuzz or Example function, each of a
// -bench pattern a Benchmark function, and a -fuzz target exactly one Fuzz
// function, in the packages that line names. A selector that matches nothing
// runs nothing and still passes, so a renamed or moved test would otherwise
// drop out of CI unnoticed. `-run '^$'`, which runs nothing on purpose, is
// the one pattern exempt.
func TestWorkflowSelectorsNameTests(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "Makefile")
	funcs := map[string][]string{} // package dir -> its test function names
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			where := file + ":" + strconv.Itoa(i+1)
			trimmed := strings.TrimSpace(line)
			at := goTestRE.FindStringIndex(trimmed)
			if at == nil || strings.HasPrefix(trimmed, "#") {
				continue
			}
			base := "."
			if m := cdRE.FindStringSubmatch(trimmed[:at[0]]); m != nil {
				base = m[1]
			}
			var pkgs []string
			sel := map[string]string{}
			args := strings.Fields(unquote.Replace(trimmed[at[1]:]))
			for j := 0; j < len(args); j++ {
				a := args[j]
				if a == "|" || a == "&&" || a == ";" || strings.Contains(a, ">") {
					break
				}
				if name, val, ok := strings.Cut(a, "="); ok && selectorFlag(name) {
					sel[name] = val
				} else if selectorFlag(a) && j+1 < len(args) {
					sel[a] = args[j+1]
					j++
				} else if a == "." || strings.HasPrefix(a, "./") {
					pkgs = append(pkgs, a)
				}
			}
			if len(sel) == 0 {
				continue
			}
			var names []string
			for _, dir := range packageDirs(t, base, pkgs) {
				if _, ok := funcs[dir]; !ok {
					funcs[dir] = testFuncs(t, dir)
				}
				names = append(names, funcs[dir]...)
			}
			for flag, pattern := range sel {
				checked++
				checkSelector(t, where, flag, pattern, names)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz selector found in the workflows or the Makefile")
	}
}

var (
	goTestRE = regexp.MustCompile(`(^|\s)(go|\$\(GO\)) test\s`)
	cdRE     = regexp.MustCompile(`cd (\S+) &&`)
	// The selectors quote patterns that hold no blank, so dropping the
	// quotes leaves the words the shell would pass.
	unquote = strings.NewReplacer("'", "", `"`, "")
)

func selectorFlag(s string) bool { return s == "-run" || s == "-bench" || s == "-fuzz" }

// checkSelector reports each part of pattern that matches none of names of
// the kind flag selects.
func checkSelector(t *testing.T, where, flag, pattern string, names []string) {
	t.Helper()
	if flag == "-run" && pattern == "^$" {
		return
	}
	prefixes := map[string][]string{"-run": {"Test", "Fuzz", "Example"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}[flag]
	var kind []string
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) {
				kind = append(kind, n)
			}
		}
	}
	alts := []string{pattern}
	if flag != "-fuzz" {
		alts = strings.Split(pattern, "|")
	}
	for _, alt := range alts {
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("%s: %s %q: %v", where, flag, alt, err)
			continue
		}
		n := 0
		for _, name := range kind {
			if re.MatchString(name) {
				n++
			}
		}
		switch {
		case n == 0:
			t.Errorf("%s: %s alternative %q matches no %s function in the packages that line runs", where, flag, alt, strings.Join(prefixes, "/"))
		case flag == "-fuzz" && n > 1:
			t.Errorf("%s: -fuzz %q matches %d fuzz targets; go test fuzzes exactly one", where, alt, n)
		}
	}
}

// packageDirs resolves go test package arguments, relative to base, into
// directories; a trailing /... takes every directory below.
func packageDirs(t *testing.T, base string, pkgs []string) []string {
	t.Helper()
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var dirs []string
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(p, "...")
		dir = filepath.Join(base, dir)
		if !recursive {
			dirs = append(dirs, dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if n := d.Name(); path != dir && (strings.HasPrefix(n, ".") || n == "testdata") {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// testFuncs returns the top-level functions of dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}
