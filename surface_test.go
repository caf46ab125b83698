package targetedattacks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The exported-surface guard lists every exported function and method
// declared in non-test code under internal/ and requires a reference to
// each from non-test code: of this module, or of the perfbench module
// that builds against it. It is a syntactic scan (go/parser only), so
// references are resolved by name:
//
//   - a function F of package p is referenced by an identifier F inside
//     p, or by a selector q.F where q imports p;
//   - a method M is referenced by any selector x.M whose x is not an
//     imported package, whatever the receiver type.
//
// Exempt are methods whose name belongs to an interface declared in the
// module (they may be called only through it) and the methods the
// standard library calls by convention. Functions the api.go facade
// re-exports count as referenced through it.

// conventionMethods are called by the standard library, not by name.
var conventionMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true, "MarshalJSON": true,
}

// surfaceAllowlist names the exported declarations that currently have
// no non-test caller, as "pkg.Func" or "pkg.Type.Method" with pkg the
// path under internal/. It may only shrink: an entry that is no longer
// flagged fails the test too, so delete it along with the dead code.
var surfaceAllowlist = map[string]bool{
	"adversary.Adversary.WantsMerge":                  true,
	"adversary.New":                                   true,
	"chainmodel.Families":                             true,
	"chainmodel.ValidateInstance":                     true,
	"churn.NewReplayer":                               true,
	"churn.Record":                                    true,
	"churn.Trace.Summarize":                           true,
	"combin.Binomial":                                 true,
	"core.Model.AnalyzeNamedWarm":                     true,
	"core.Model.InitialPoint":                         true,
	"core.Rule1GainProbability":                       true,
	"core.Rule1Gains.Fires":                           true,
	"core.ValidateStochasticity":                      true,
	"des.Engine.Drain":                                true,
	"des.Engine.RunSteps":                             true,
	"des.Engine.Schedule":                             true,
	"des.Engine.Steps":                                true,
	"hypercube.Distance":                              true,
	"hypercube.Label.Dimensions":                      true,
	"hypercube.Label.IsPrefixOf":                      true,
	"hypercube.LabelFromString":                       true,
	"hypercube.RoutePath":                             true,
	"identity.ID.CommonPrefixLen":                     true,
	"identity.VerifyClaimedID":                        true,
	"identity.VerifyMessage":                          true,
	"montecarlo.Simulator.RunBatch":                   true,
	"obs.SortedStages":                                true,
	"overlay.CompetingChains.SingleChainDistribution": true,
	"stats.Counter.Total":                             true,
	"stats.Histogram.Buckets":                         true,
	"stats.NewHistogram":                              true,
}

// surfaceFreePackages may never appear on the allowlist.
var surfaceFreePackages = []string{"matrix", "markov"}

func TestExportedSurfaceIsReferenced(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		key, pkg, name string
		method         bool
		pos            token.Position
	}
	var decls []decl
	ifaceMethods := map[string]bool{}
	funcRefs := map[string]bool{} // "importpath.Name"
	methodRefs := map[string]bool{}

	fset := token.NewFileSet()
	scan := func(dir, importPath string) {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || name == "perfbench") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkgPath := importPath
			if rel != "." {
				pkgPath += "/" + filepath.ToSlash(rel)
			}
			imports := map[string]string{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = p
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || !strings.Contains(pkgPath, "/internal/") {
					continue
				}
				pkg := strings.TrimPrefix(pkgPath, importPath+"/internal/")
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if gen, ok := recv.(*ast.IndexExpr); ok {
						recv = gen.X
					}
					key = pkg + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
				}
				decls = append(decls, decl{key: key, pkg: pkg, name: fd.Name.Name,
					method: fd.Recv != nil, pos: fset.Position(fd.Pos())})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				case *ast.FuncDecl:
					// The declared name is not a reference; walk the rest.
					refs := inspectRefs(imports, pkgPath, funcRefs, methodRefs)
					if n.Recv != nil {
						ast.Inspect(n.Recv, refs)
					}
					ast.Inspect(n.Type, refs)
					if n.Body != nil {
						ast.Inspect(n.Body, refs)
					}
					return false
				}
				return inspectRefs(imports, pkgPath, funcRefs, methodRefs)(n)
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	scan(root, "targetedattacks")
	scan(filepath.Join(root, "perfbench"), "targetedattacks/perfbench")

	var flagged []string
	where := map[string]token.Position{}
	for _, d := range decls {
		if d.method && (ifaceMethods[d.name] || conventionMethods[d.name] || methodRefs[d.name]) {
			continue
		}
		if !d.method && funcRefs["targetedattacks/internal/"+d.pkg+"."+d.name] {
			continue
		}
		flagged = append(flagged, d.key)
		where[d.key] = d.pos
	}
	sort.Strings(flagged)
	for _, key := range flagged {
		if !surfaceAllowlist[key] {
			t.Errorf("%s: exported %s has no reference from non-test code; delete it, move it into a _test.go file, or allowlist it", where[key], key)
		}
	}
	isFlagged := map[string]bool{}
	for _, key := range flagged {
		isFlagged[key] = true
	}
	for key := range surfaceAllowlist {
		if !isFlagged[key] {
			t.Errorf("allowlist entry %s is no longer flagged; remove it", key)
		}
		for _, pkg := range surfaceFreePackages {
			if strings.HasPrefix(key, pkg+".") {
				t.Errorf("allowlist entry %s: package %s must stay free of unreferenced exports", key, pkg)
			}
		}
	}
}

// inspectRefs records the function and method references under a node.
func inspectRefs(imports map[string]string, pkgPath string, funcRefs, methodRefs map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					funcRefs[p+"."+n.Sel.Name] = true
					return false
				}
			}
			methodRefs[n.Sel.Name] = true
			ast.Inspect(n.X, inspectRefs(imports, pkgPath, funcRefs, methodRefs))
			return false
		case *ast.Ident:
			funcRefs[pkgPath+"."+n.Name] = true
		}
		return true
	}
}
