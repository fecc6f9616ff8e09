package frontend

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attrib"
)

// observerPlumbing is the code allowed to name the observers: the
// attach methods and emit with its check and fan-out.
var observerPlumbing = map[string]bool{
	"SetTracer": true, "SetAttribution": true,
	"observed": true, "emit": true, "publish": true,
}

// TestObserversReachedOnlyThroughEmit holds the front end to its one
// event stream: outside the attach methods and emit, no code names the
// tracer or the engine, and no observation site nests one observer
// check inside another.
func TestObserversReachedOnlyThroughEmit(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || observerPlumbing[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "tr" || sel.Sel.Name == "at") {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "f" {
						t.Errorf("%s: %s names f.%s; publish through f.emit instead", fset.Position(sel.Pos()), fn.Name.Name, sel.Sel.Name)
					}
				}
				if outer, ok := n.(*ast.IfStmt); ok && isObservedCheck(outer.Cond) {
					ast.Inspect(outer.Body, func(m ast.Node) bool {
						if inner, ok := m.(*ast.IfStmt); ok && isObservedCheck(inner.Cond) {
							t.Errorf("%s: %s checks f.observed() twice at one site", fset.Position(inner.Pos()), fn.Name.Name)
						}
						return true
					})
				}
				return true
			})
		}
	}
}

// isObservedCheck reports whether cond is the call f.observed().
func isObservedCheck(cond ast.Expr) bool {
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "observed"
}

// TestEngineTakesOnlyTheStream checks that the attribution engine has
// no front-end entry point besides Observe: the per-site Note*
// methods, StallCycle and ClassifyMiss are gone.
func TestEngineTakesOnlyTheStream(t *testing.T) {
	typ := reflect.TypeOf(&attrib.Engine{})
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if strings.HasPrefix(name, "Note") || name == "StallCycle" || name == "ClassifyMiss" {
			t.Errorf("attrib.Engine exports %s; the front end reaches it only through Observe", name)
		}
	}
	if _, ok := typ.MethodByName("Observe"); !ok {
		t.Error("attrib.Engine has no Observe method")
	}
}
