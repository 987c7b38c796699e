package spatialhist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// TestNoConcreteEstimatorTypesOutsideCore keeps the estimator × level
// matrix behind core: no non-test file of the module outside internal/core
// asserts to, or switches on, *core.SEuler, *core.Euler, *core.MEuler or
// *core.Zoom. Code that needs to know which algorithm it holds asks
// core.SpecOf; code that needs a level asks core.PlanGrid.
func TestNoConcreteEstimatorTypesOutsideCore(t *testing.T) {
	walkModule(t, filepath.Join("internal", "core"), func(fset *token.FileSet, path string, file *ast.File) {
		corePkg := importName(file, "spatialhist/internal/core")
		if corePkg == "" {
			return
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
		eachSite(path, file, func(site string, n ast.Node) {
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
		})
	})
	for site, seen := range allowedConcreteSites {
		if !seen {
			t.Errorf("allow-listed site %s no longer names a concrete estimator type: drop it from the list", site)
		}
	}
	if t.Failed() {
		t.Log("ask core.SpecOf which algorithm an estimator is, core.PlanGrid for its level")
	}
}

// allowedMuxSites lists, as file:function, the non-test sites outside
// internal/geobrowse that may make a mux: geobrowsed's -pprof wrapper,
// which puts net/http/pprof beside whatever front the mode assembled.
var allowedMuxSites = map[string]bool{filepath.Join("cmd", "geobrowsed", "main.go") + ":run": false}

// TestOneServerAssembly keeps every dataset front one geobrowse.Server:
// outside internal/geobrowse no non-test file calls http.NewServeMux, so
// every route runs behind geobrowse.New's one middleware site — a package
// that serves more mounts it with (*geobrowse.Server).Handle.
func TestOneServerAssembly(t *testing.T) {
	walkModule(t, filepath.Join("internal", "geobrowse"), func(fset *token.FileSet, path string, file *ast.File) {
		httpPkg := importName(file, "net/http")
		if httpPkg == "" {
			return
		}
		eachSite(path, file, func(site string, n ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewServeMux" {
				return
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != httpPkg {
				return
			}
			if _, ok := allowedMuxSites[site]; ok {
				allowedMuxSites[site] = true
				return
			}
			t.Errorf("%s: http.NewServeMux outside internal/geobrowse: build the front with geobrowse.New and mount routes with Server.Handle", fset.Position(sel.Pos()))
		})
	})
	for site, seen := range allowedMuxSites {
		if !seen {
			t.Errorf("allow-listed site %s no longer makes a mux: drop it from the list", site)
		}
	}
}

// serialPackages are the packages that run on their caller's goroutine:
// the histogram and prefix-sum constructions of the paper, one pass each,
// the tile-map sweep and its wire encoder, one linear pass per map, and
// the shard coordinator, one shard after another.
var serialPackages = []string{
	filepath.Join("internal", "euler"),
	filepath.Join("internal", "prefixsum"),
	filepath.Join("internal", "core"),
	filepath.Join("internal", "geobrowse"),
	filepath.Join("internal", "shard"),
}

// TestBuildsAndMapsRunOnOneGoroutine keeps histogram construction and
// tile maps serial: no non-test file of serialPackages starts a goroutine.
// No workload ever reached the parallel build paths euler and prefixsum
// carried, and the row bands core and geobrowse fanned large maps across
// made them slower on two cores (DESIGN, "Why builds run on one goroutine"
// and "Why a map runs on one goroutine"); a request runs on its own, and
// admission control bounds how many run at once. The shard coordinator
// reads and writes its in-process shards on the request's goroutine too.
func TestBuildsAndMapsRunOnOneGoroutine(t *testing.T) {
	walkModule(t, "", func(fset *token.FileSet, path string, file *ast.File) {
		pkg := filepath.Dir(path)
		if !slices.Contains(serialPackages, pkg) {
			return
		}
		eachSite(path, file, func(site string, n ast.Node) {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement in %s: %s runs on its caller's goroutine", fset.Position(g.Pos()), site, filepath.ToSlash(pkg))
			}
		})
	})
}

// docsNamingPaths are the documents whose code names tree paths.
var docsNamingPaths = []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

var (
	fencedBlock = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	codeSpan    = regexp.MustCompile("`[^`]+`")
	treePath    = regexp.MustCompile(`(?m)(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples)/[\w./-]*\w)`)
)

// TestDocsNameExistingPaths keeps the documents naming only what exists:
// every internal/…, cmd/… or examples/… path in a code span or a fenced
// block of docsNamingPaths is a file or directory of the tree, so a
// deleted package, command or example takes its mentions with it.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range docsNamingPaths {
		t.Run(filepath.ToSlash(doc), func(t *testing.T) {
			data, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			text := string(data)
			code := fencedBlock.FindAllString(text, -1)
			code = append(code, codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1)...)
			for _, c := range code {
				for _, m := range treePath.FindAllStringSubmatch(c, -1) {
					if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
						t.Errorf("%s names %s, which is not in the tree", doc, m[1])
					}
				}
			}
		})
	}
}

// identifierDocs are the documents whose code spans name only
// declarations that exist. DESIGN.md is exempt: its "Why …" paragraphs
// name the deleted designs they explain (core.BandPool, say).
var identifierDocs = []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

// qualifiedIdent is a pkg.Ident: a lower-case package name, not part of a
// path or a longer selector, and an exported identifier.
var qualifiedIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)`)

// TestDocsNameExistingIdentifiers keeps the documents naming only
// declarations that exist: every pkg.Ident in a code span of
// identifierDocs, where pkg is a package under internal/, names an
// exported top-level declaration of that package's non-test files, so a
// deleted type, function, variable or constant takes its mentions with it.
func TestDocsNameExistingIdentifiers(t *testing.T) {
	exported := map[string]map[string]bool{} // package name -> its exported names
	walkModule(t, "", func(_ *token.FileSet, path string, file *ast.File) {
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return
		}
		names := exported[file.Name.Name]
		if names == nil {
			names = map[string]bool{}
			exported[file.Name.Name] = names
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						names[sp.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	})
	for _, doc := range identifierDocs {
		t.Run(filepath.ToSlash(doc), func(t *testing.T) {
			data, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, c := range codeSpan.FindAllString(fencedBlock.ReplaceAllString(string(data), ""), -1) {
				for _, m := range qualifiedIdent.FindAllStringSubmatch(c, -1) {
					names, ok := exported[m[1]]
					if !ok {
						continue // not an internal package
					}
					checked++
					if !names[m[2]] {
						t.Errorf("%s names %s.%s, which package %s does not declare: %s", doc, m[1], m[2], m[1], c)
					}
				}
			}
			t.Logf("%d identifiers checked", checked)
		})
	}
}

// metricRow is a row of README's /metrics table: its first cell, then a
// counter, gauge or histogram type.
var metricRow = regexp.MustCompile("(?m)^\\| (`[^|]*) \\| (?:counter|gauge|histogram)")

// TestDocsNameRegisteredMetrics keeps README's /metrics table naming only
// metrics the code registers: every metric name in the first cell of a
// row — brace alternatives expanded — is a string literal of a non-test
// file of the module, so a deleted metric takes its row with it.
func TestDocsNameRegisteredMetrics(t *testing.T) {
	literals := map[string]bool{}
	walkModule(t, "", func(_ *token.FileSet, _ string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					literals[v] = true
				}
			}
			return true
		})
	})
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, row := range metricRow.FindAllStringSubmatch(string(data), -1) {
		for _, span := range codeSpan.FindAllString(row[1], -1) {
			name := strings.Trim(span, "`")
			alts := []string{name}
			if pre, rest, ok := strings.Cut(name, "{"); ok {
				list, post, _ := strings.Cut(rest, "}")
				alts = alts[:0]
				for _, alt := range strings.Split(list, ",") {
					alts = append(alts, pre+alt+post)
				}
			}
			for _, metric := range alts {
				names++
				if !literals[metric] {
					t.Errorf("README.md's /metrics table names %s, which no non-test file registers: %s", metric, strings.TrimSpace(row[0]))
				}
			}
		}
	}
	if names == 0 {
		t.Fatal("no /metrics table rows found in README.md")
	}
	t.Logf("%d metric names checked", names)
}

// walkModule parses every non-test Go file of the main module outside
// skip and hands it to fn. benchmark/ is a module of its own, and
// dot-directories hold build output.
func walkModule(t *testing.T, skip string, fn func(fset *token.FileSet, path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == skip || (strings.HasPrefix(d.Name(), ".") && path != ".") {
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
		fn(fset, path, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// importName is the name file refers to the package at importPath by, or
// "" when it does not import it.
func importName(file *ast.File, importPath string) string {
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return importPath[strings.LastIndexByte(importPath, '/')+1:]
		}
	}
	return ""
}

// eachSite visits every node of file with the file:function site it sits
// in (file: alone outside a function).
func eachSite(path string, file *ast.File, visit func(site string, n ast.Node)) {
	for _, decl := range file.Decls {
		site := path + ":"
		if fn, ok := decl.(*ast.FuncDecl); ok {
			site += fn.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			visit(site, n)
			return true
		})
	}
}
