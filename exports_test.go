package commoverlap

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedDecl is an exported top-level function or method declared in a
// non-test file under internal/.
type exportedDecl struct {
	pos   string // file:line
	dir   string // the declaring package's directory
	name  string
	label string // Func or Type.Method
}

// recvName returns the base type name of a method receiver: T for T, *T,
// T[K] and *T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// TestNoTestOnlyExports keeps internal/ free of API that only its own
// package's tests call. Every exported top-level function or method in a
// non-test internal/ file must have its name occur as an identifier in
// some non-test file of the repository (the root module, cmd/, examples/
// and the nested perfbench module) or in a test file of another package.
// The match is by name, so it can only miss dead code, never flag used
// code. An oracle a package's own tests need belongs in its _test.go or
// export_test.go files.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	used := map[string]bool{}                // names used by non-test files
	testUsed := map[string]map[string]bool{} // name -> directories of test files using it
	internal := "internal" + string(filepath.Separator)
	walkGo(t, fset, ".", skipHidden, func(p string, f *ast.File, test bool) {
		dir := filepath.Dir(p)
		own := map[*ast.Ident]bool{}
		if !test && strings.HasPrefix(p, internal) {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				label := fn.Name.Name
				if fn.Recv != nil {
					label = recvName(fn.Recv.List[0].Type) + "." + label
				}
				decls = append(decls, exportedDecl{fset.Position(fn.Pos()).String(), dir, fn.Name.Name, label})
				own[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || own[id] {
				return true
			}
			if !test {
				used[id.Name] = true
			} else if testUsed[id.Name] == nil {
				testUsed[id.Name] = map[string]bool{dir: true}
			} else {
				testUsed[id.Name][dir] = true
			}
			return true
		})
	})
	// The scan must see the exported API, or it proves nothing.
	if len(decls) < 100 {
		t.Fatalf("scan found only %d exported declarations under internal/", len(decls))
	}

	var bad []string
	for _, d := range decls {
		if used[d.name] {
			continue
		}
		otherPkg := false
		for dir := range testUsed[d.name] {
			otherPkg = otherPkg || dir != d.dir
		}
		if !otherPkg {
			bad = append(bad, d.pos+": "+d.label)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no caller outside its own package's tests: delete it or move it into a _test.go file", b)
	}
	if len(bad) > 0 {
		t.Logf("%d test-only exports", len(bad))
	}
}
