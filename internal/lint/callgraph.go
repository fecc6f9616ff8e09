package lint

import (
	"go/ast"
	"go/types"
)

// Whole-program analysis follows chains across package boundaries: a
// Clone method delegating to a component's Clone, a hook registered
// with a method value whose mutations live in the method. This file
// upgrades the loader with the two facilities that make such reasoning
// cheap:
//
//   - a declaration index mapping every *types.Func the checker
//     resolved to the *ast.FuncDecl (and owning *Package) that defines
//     it, so a caller holding a call site can open the callee's body
//     (no analyzer follows calls today; TestCallGraphResolvesAcrossPackages
//     pins that the index resolves them), and
//   - a per-object fact store in the x/tools go/analysis spirit:
//     analyzers publish facts about objects ("this type's Clone was
//     proven complete") that later analyzers — and the self-tests
//     proving an analyzer really covered the types it gates — can
//     query.
//
// Both are derived lazily from the one shared FileSet/type-info the
// loader already builds; no extra parsing or checking happens.

// DeclSite pairs a function declaration with the package owning it.
type DeclSite struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// declIndex builds (once) the *types.Func -> declaration map over every
// loaded package, including methods.
func (p *Program) declIndex() map[*types.Func]DeclSite {
	if p.decls != nil {
		return p.decls
	}
	p.decls = make(map[*types.Func]DeclSite)
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.decls[fn] = DeclSite{Pkg: pkg, Decl: fd}
				}
			}
		}
	}
	return p.decls
}

// DeclOf returns the declaration of fn, or ok=false for functions
// without a body in the loaded program (imports from the standard
// library, interface methods, linker stubs).
func (p *Program) DeclOf(fn *types.Func) (DeclSite, bool) {
	site, ok := p.declIndex()[fn]
	return site, ok
}

// CalleeOf statically resolves a call expression to the *types.Func it
// invokes: plain function calls, method calls on concrete receivers,
// and references through method values. Calls through interface
// methods, function-typed variables, or builtins resolve to nil — the
// callee's body is genuinely unknowable without flow analysis, and the
// analyzers treat such calls conservatively.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface method: no body to open.
				if isInterfaceRecv(fn) {
					return nil
				}
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isInterfaceRecv reports whether fn is declared on an interface.
func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// Callees lists the statically resolvable module-local functions a
// body calls (deduplicated, in first-call order). Functions outside
// the loaded program (stdlib) are omitted: analyzers follow module
// chains, and the standard library is trusted.
func (p *Program) Callees(pkg *Package, body ast.Node) []*types.Func {
	idx := p.declIndex()
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := CalleeOf(pkg.Info, call)
		if fn == nil || seen[fn] {
			return true
		}
		if _, local := idx[fn]; local {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// FactStore records analyzer-published facts about type-checked
// objects. Keys are namespaced by convention as "analyzer.fact"
// ("clonecomplete.complete"). Facts exist for the
// lifetime of one Program — exactly the scope whole-program analyzers
// and their self-tests share.
type FactStore struct {
	m map[types.Object]map[string]any
}

// Set publishes a fact about obj.
func (s *FactStore) Set(obj types.Object, key string, val any) {
	if s.m == nil {
		s.m = make(map[types.Object]map[string]any)
	}
	facts := s.m[obj]
	if facts == nil {
		facts = make(map[string]any)
		s.m[obj] = facts
	}
	facts[key] = val
}

// Get returns the fact value and whether it was published.
func (s *FactStore) Get(obj types.Object, key string) (any, bool) {
	v, ok := s.m[obj][key]
	return v, ok
}

// Bool returns a boolean fact (false when absent or non-bool).
func (s *FactStore) Bool(obj types.Object, key string) bool {
	v, _ := s.Get(obj, key)
	b, _ := v.(bool)
	return b
}

// Facts returns the program's shared fact store.
func (p *Program) Facts() *FactStore {
	if p.facts == nil {
		p.facts = &FactStore{}
	}
	return p.facts
}
