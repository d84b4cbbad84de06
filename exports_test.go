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

// stdInterfaceMethods are method names that standard-library
// interfaces call (sort.Interface, json.Marshaler, json.Unmarshaler
// and the errors package's Unwrap), so a method of that name is live
// with no mention in this repository.
var stdInterfaceMethods = map[string]bool{
	"Less": true, "Swap": true, "MarshalJSON": true, "UnmarshalJSON": true, "Unwrap": true,
}

// TestNoDeadExports fails for every exported top-level function
// declared in a non-test file under cmd/ or internal/ whose name
// appears in no non-test file of cmd/, internal/, examples/, bench/
// or the lbsagg.go facade except as its own declaration: code that
// only tests call is unexported, moved into a test file or deleted.
// It also fails for every function or method, exported or not,
// declared in such a file whose name no Go file of the repository
// mentions, tests included (a method named in stdInterfaceMethods
// excepted): code that nothing calls is deleted.
// Matching is by bare name, so a name declared in two packages, or
// shared with a method, field or variable, counts as used wherever
// either is used. The gate can therefore miss dead code, but never
// flags live code.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		ast  *ast.File
		test bool
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{f, strings.HasSuffix(name, "_test.go")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		key  string // "<package name>.<function or method>"
		name string
		pos  token.Position
		// export is set for exported top-level functions, which
		// program code must call; every other declaration needs only
		// a mention in some file.
		export bool
	}
	var decls []decl
	declIdents := make(map[*ast.Ident]bool)
	used := make(map[string]bool)      // names non-test files mention
	mentioned := make(map[string]bool) // names any file mentions
	for _, f := range files {
		path := fset.Position(f.ast.Pos()).Filename
		declared := !f.test && (strings.HasPrefix(path, "cmd"+string(filepath.Separator)) ||
			strings.HasPrefix(path, "internal"+string(filepath.Separator)))
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fd.Name] = true
			if declared && !(fd.Recv != nil && stdInterfaceMethods[fd.Name.Name]) {
				decls = append(decls, decl{f.ast.Name.Name + "." + fd.Name.Name, fd.Name.Name, fset.Position(fd.Name.Pos()), fd.Recv == nil && fd.Name.IsExported()})
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				mentioned[id.Name] = true
				if !f.test {
					used[id.Name] = true
				}
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no functions found: run from the repository root")
	}

	var problems []string
	seen := make(map[string]bool)
	for _, d := range decls {
		if !d.export {
			if !mentioned[d.name] {
				problems = append(problems, d.key+" ("+d.pos.String()+") is mentioned by no file, tests included: delete it")
			}
			continue
		}
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
