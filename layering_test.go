package spatialhist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// concreteEstimators are the types only internal/core may tell apart.
var concreteEstimators = map[string]bool{"SEuler": true, "Euler": true, "MEuler": true, "Zoom": true}

// allowedConcreteSites lists, as file:function, the sites outside
// internal/core that may still name one: QueryDetail asks for the
// M-EulerApprox per-group breakdown, a capability no other estimator has.
var allowedConcreteSites = map[string]bool{"spatialhist.go:QueryDetail": false}

// TestNoConcreteEstimatorTypesOutsideCore keeps the estimator × level × ε
// matrix behind core: no non-test file of the module outside internal/core
// asserts to, or switches on, *core.SEuler, *core.Euler, *core.MEuler or
// *core.Zoom. Code that needs to know which algorithm it holds asks
// core.SpecOf; code that needs a level or an ε answer asks core.PlanGrid.
func TestNoConcreteEstimatorTypesOutsideCore(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is a module of its own; dot-directories hold build output.
			if path == "benchmark" || path == filepath.Join("internal", "core") || (strings.HasPrefix(d.Name(), ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		corePkg := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "spatialhist/internal/core" {
				corePkg = "core"
				if imp.Name != nil {
					corePkg = imp.Name.Name
				}
			}
		}
		if corePkg == "" {
			return nil
		}
		named := func(e ast.Expr) string {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != corePkg || !concreteEstimators[sel.Sel.Name] {
				return ""
			}
			return "*core." + sel.Sel.Name
		}
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			site := path + ":"
			if fn != nil {
				site += fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var exprs []ast.Expr
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					if n.Type != nil { // nil in x.(type); the cases are visited below
						exprs = []ast.Expr{n.Type}
					}
				case *ast.TypeSwitchStmt:
					for _, clause := range n.Body.List {
						exprs = append(exprs, clause.(*ast.CaseClause).List...)
					}
				}
				for _, e := range exprs {
					name := named(e)
					if name == "" {
						continue
					}
					if _, ok := allowedConcreteSites[site]; ok {
						allowedConcreteSites[site] = true
						continue
					}
					t.Errorf("%s: %s named in a type assertion or switch outside internal/core", fset.Position(e.Pos()), name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site, seen := range allowedConcreteSites {
		if !seen {
			t.Errorf("allow-listed site %s no longer names a concrete estimator type: drop it from the list", site)
		}
	}
	if t.Failed() {
		t.Log("ask core.SpecOf which algorithm an estimator is, core.PlanGrid for its level and ε answer")
	}
}
