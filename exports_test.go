package lbsagg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowlist names the exported functions under cmd/ and
// internal/ that no program code calls and that stay exported anyway,
// each with its reason. Keys are "<package name>.<function>".
var deadExportAllowlist = map[string]string{
	"core.CountBiasBound":       "Theorem 2's bias bound, evaluated by tests for the paper-claims table",
	"core.VolumeRatioBound":     "the Theorem 2 volume ratio, evaluated by tests for the paper-claims table",
	"core.NearestNeighborDists": "feeds CountBiasBound in the paper-claims tests",
	"cell.BuildFromSites":       "the exact-cell reference implementation that tests compare the incremental builds against",
}

// TestNoDeadExports fails for every exported top-level function
// declared in a non-test file under cmd/ or internal/ whose name
// appears in no non-test file of cmd/, internal/, examples/, bench/
// or the lbsagg.go facade except as its own declaration: code that
// only tests call is unexported, moved into a test file or deleted.
// Matching is by bare name, so a name declared in two packages, or
// shared with a method, field or variable, counts as used wherever
// either is used. The gate can therefore miss dead code, but never
// flags live code.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	parse := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for _, root := range []string{"cmd", "internal", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				parse(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parse("lbsagg.go")

	type decl struct {
		key  string // "<package name>.<function>"
		name string
		pos  token.Position
	}
	var decls []decl
	declIdents := make(map[*ast.Ident]bool)
	used := make(map[string]bool)
	for _, f := range files {
		path := fset.Position(f.Pos()).Filename
		declared := strings.HasPrefix(path, "cmd"+string(filepath.Separator)) ||
			strings.HasPrefix(path, "internal"+string(filepath.Separator))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fd.Name] = true
			if declared && fd.Recv == nil && fd.Name.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + fd.Name.Name, fd.Name.Name, fset.Position(fd.Name.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found: run from the repository root")
	}

	var problems []string
	seen := make(map[string]bool)
	for _, d := range decls {
		_, allowed := deadExportAllowlist[d.key]
		seen[d.key] = true
		switch {
		case !used[d.name] && !allowed:
			problems = append(problems, d.key+" ("+d.pos.String()+") is called by no program code: unexport it, move it into a test file, delete it, or allowlist it with a reason")
		case used[d.name] && allowed:
			problems = append(problems, d.key+" is allowlisted but program code calls it: drop its entry")
		}
	}
	for key := range deadExportAllowlist {
		if !seen[key] {
			problems = append(problems, key+" is allowlisted but no longer declared: drop its entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
