package commoverlap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// worldBuilders are the constructors that internal/machine.Spec calls in
// its one fixed order; keyed by import path.
var worldBuilders = map[string]string{
	"commoverlap/internal/sim":    "NewEngine",
	"commoverlap/internal/simnet": "New",
	"commoverlap/internal/mpi":    "NewWorld",
}

// handWiredCalls returns "file:line: pkg.Func" for every call in the file
// that resolves, through the file's imports, to one of worldBuilders.
func handWiredCalls(fset *token.FileSet, f *ast.File) []string {
	local := map[string]string{} // file-local package name -> import path
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || worldBuilders[p] == "" {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = p
	}
	var hits []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if p, ok := local[pkg.Name]; ok && worldBuilders[p] == sel.Sel.Name {
			hits = append(hits, fset.Position(call.Pos()).String()+": "+pkg.Name+"."+sel.Sel.Name)
		}
		return true
	})
	return hits
}

// walkGo parses every Go file under root, skipping the directories skip
// accepts, and hands each to visit together with whether it is a test file.
func walkGo(t *testing.T, fset *token.FileSet, root string, skip func(dir string) bool, visit func(p string, f *ast.File, test bool)) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && skip(p) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(p, f, strings.HasSuffix(p, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// skipHidden skips testdata and dot directories (build outputs, VCS).
func skipHidden(dir string) bool {
	base := filepath.Base(dir)
	return base == "testdata" || strings.HasPrefix(base, ".")
}

// scanHandWired collects the hand-wired world calls of the non-test Go
// files under root, skipping the directories skip accepts.
func scanHandWired(t *testing.T, root string, skip func(dir string) bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	var hits []string
	walkGo(t, fset, root, skip, func(_ string, f *ast.File, test bool) {
		if !test {
			hits = append(hits, handWiredCalls(fset, f)...)
		}
	})
	return hits
}

// TestOneMachinePath keeps internal/machine.Spec the only way non-test code
// builds a simulated world: no file outside internal/machine may call
// sim.NewEngine, simnet.New or mpi.NewWorld. Tests still wire worlds by
// hand to probe one layer, and so does the nested perfbench module, whose
// probes measure the layers in isolation.
func TestOneMachinePath(t *testing.T) {
	machineDir := filepath.Join("internal", "machine")
	skip := func(dir string) bool {
		if dir == machineDir || skipHidden(dir) {
			return true
		}
		_, err := os.Stat(filepath.Join(dir, "go.mod")) // a nested module
		return err == nil
	}
	for _, hit := range scanHandWired(t, ".", skip) {
		t.Errorf("%s: build the world through machine.Spec instead", hit)
	}

	// The scan must see the one sanctioned path, or it proves nothing.
	if got := scanHandWired(t, machineDir, func(string) bool { return false }); len(got) != len(worldBuilders) {
		t.Errorf("scan of %s found %d world-building calls, want %d: %v",
			machineDir, len(got), len(worldBuilders), got)
	}
}
