package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HookPureAnalyzer polices the observability-hook contract every layer
// of the simulator relies on (tracers, attribution, eviction
// observers): hooks are optional, so every invocation of an `On*`
// func-typed field must be nil-checked — a disabled hook costs one
// comparison, never a panic — and hook bodies must stay pure with
// respect to simulated state: a hook that mutates state feeding
// results makes output depend on whether observability is attached,
// which breaks the bit-identical-with-and-without-tracing guarantee
// the overhead benchmarks and sampled/exact comparisons rest on.
//
// Concretely:
//
//   - a call through a func field named On* must be guarded by an
//     enclosing `if x.OnFoo != nil` (or follow an
//     `if x.OnFoo == nil { return }` early-out) on the same receiver
//     chain;
//   - a func literal assigned to an On* field (or given as an On*
//     composite-literal key) must not assign to variables or fields
//     captured from outside the literal — observation is calls out
//     (tracer emissions, atomic counters), never writes back in.
//     Method-value registrations (x.OnRemove = n.pruneShadowOff) are
//     component wiring, not observers, and are exempt.
//
// Deliberate exceptions carry `//skia:hookpure-ok <justification>` on
// the offending line.
var HookPureAnalyzer = &Analyzer{
	Name:      "hookpure",
	Doc:       "requires On* hook calls to be nil-checked and hook literals to not mutate captured state",
	Directive: "//skia:hookpure-ok",
	Run:       runHookPure,
}

func runHookPure(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &hookWalker{pass: pass, file: file}
				w.stmts(fd.Body.List, nil)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			checkHookRegistration(pass, file, n)
			return true
		})
	}
	return nil
}

// guardKey identifies one hook expression: the field and the object the
// selector chain is rooted at, so `a.OnFoo != nil` does not vouch for
// `b.OnFoo()`.
type guardKey struct {
	root  types.Object
	field types.Object
}

// hookWalker carries nil-guard context down the statement tree.
type hookWalker struct {
	pass *Pass
	file *ast.File
}

// stmts checks a statement list under the given guards, threading
// early-out guards (`if x.On == nil { return }`) into the tail.
func (w *hookWalker) stmts(list []ast.Stmt, guards map[guardKey]bool) {
	for i, stmt := range list {
		ifs, ok := stmt.(*ast.IfStmt)
		if ok && ifs.Init == nil {
			if keys := nilGuards(w.pass.Pkg.Info, ifs.Cond, token.EQL); len(keys) > 0 && terminates(ifs.Body) && ifs.Else == nil {
				// if x.On == nil { return }: the rest of the list runs
				// with the hook known non-nil.
				w.exprs(ifs.Cond, guards)
				w.stmts(ifs.Body.List, guards)
				w.stmts(list[i+1:], withGuards(guards, keys))
				return
			}
		}
		w.stmt(stmt, guards)
	}
}

// stmt dispatches one statement, extending guards through if-chains.
func (w *hookWalker) stmt(stmt ast.Stmt, guards map[guardKey]bool) {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, guards)
		}
		w.exprs(s.Cond, guards)
		pos := nilGuards(w.pass.Pkg.Info, s.Cond, token.NEQ)
		neg := nilGuards(w.pass.Pkg.Info, s.Cond, token.EQL)
		w.stmts(s.Body.List, withGuards(guards, pos))
		if s.Else != nil {
			w.stmt(s.Else, withGuards(guards, neg))
		}
	case *ast.BlockStmt:
		w.stmts(s.List, guards)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, guards)
		}
		if s.Cond != nil {
			w.exprs(s.Cond, guards)
		}
		if s.Post != nil {
			w.stmt(s.Post, guards)
		}
		w.stmts(s.Body.List, guards)
	case *ast.RangeStmt:
		w.exprs(s.X, guards)
		w.stmts(s.Body.List, guards)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, guards)
		}
		if s.Tag != nil {
			w.exprs(s.Tag, guards)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.exprs(e, guards)
				}
				w.stmts(cc.Body, guards)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, guards)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, guards)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, guards)
				}
				w.stmts(cc.Body, guards)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, guards)
	case *ast.ExprStmt:
		w.exprs(s.X, guards)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.exprs(e, guards)
		}
		for _, e := range s.Rhs {
			w.exprs(e, guards)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.exprs(e, guards)
		}
	case *ast.GoStmt:
		w.exprs(s.Call, guards)
	case *ast.DeferStmt:
		w.exprs(s.Call, guards)
	case *ast.SendStmt:
		w.exprs(s.Chan, guards)
		w.exprs(s.Value, guards)
	case *ast.IncDecStmt:
		w.exprs(s.X, guards)
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.exprs(e, guards)
				return false
			}
			return true
		})
	}
}

// exprs checks hook-field calls inside an expression tree, descending
// into func literals with the current guards (a guarded defer/closure
// registration is the established idiom).
func (w *hookWalker) exprs(expr ast.Expr, guards map[guardKey]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			w.stmts(node.Body.List, guards)
			return false
		case *ast.CallExpr:
			key, ok := hookCallKey(w.pass.Pkg.Info, node)
			if !ok || guards[key] {
				return true
			}
			if lineDirective(w.pass.Pkg, w.file, node.Pos(), "//skia:hookpure-ok") {
				return true
			}
			w.pass.Reportf(node.Pos(), "call to hook %s without a nil check: hooks are optional; guard with `if %s != nil`, or annotate //skia:hookpure-ok with a justification", hookName(node.Fun), hookName(node.Fun))
		}
		return true
	})
}

// hookCallKey resolves a call through an On*-named func-typed struct
// field to its guard key.
func hookCallKey(info *types.Info, call *ast.CallExpr) (guardKey, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return guardKey{}, false
	}
	return hookSelKey(info, sel)
}

// hookSelKey resolves a selector expression to an On* func-field guard
// key (field object + chain root object).
func hookSelKey(info *types.Info, sel *ast.SelectorExpr) (guardKey, bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return guardKey{}, false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || len(v.Name()) < 3 || v.Name()[:2] != "On" || v.Name()[2] < 'A' || v.Name()[2] > 'Z' {
		return guardKey{}, false
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
		return guardKey{}, false
	}
	return guardKey{root: rootObject(info, sel.X), field: v}, true
}

// nilGuards extracts the hook keys a condition compares against nil
// with op, following && conjunctions (for NEQ: `a != nil && b != nil`
// guards both; for EQL: `a == nil || b == nil` with early return
// guards both, so || is followed for EQL).
func nilGuards(info *types.Info, cond ast.Expr, op token.Token) []guardKey {
	var keys []guardKey
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		join := token.LAND
		if op == token.EQL {
			join = token.LOR
		}
		if b.Op == join {
			walk(b.X)
			walk(b.Y)
			return
		}
		if b.Op != op {
			return
		}
		operand := b.X
		if isNilIdent(info, operand) {
			operand = b.Y
		} else if !isNilIdent(info, b.Y) {
			return
		}
		if sel, ok := ast.Unparen(operand).(*ast.SelectorExpr); ok {
			if key, ok := hookSelKey(info, sel); ok {
				keys = append(keys, key)
			}
		}
	}
	walk(cond)
	return keys
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// withGuards returns guards extended by keys (copy-on-extend).
func withGuards(guards map[guardKey]bool, keys []guardKey) map[guardKey]bool {
	if len(keys) == 0 {
		return guards
	}
	out := make(map[guardKey]bool, len(guards)+len(keys))
	for k := range guards {
		out[k] = true
	}
	for _, k := range keys {
		out[k] = true
	}
	return out
}

// terminates reports whether a block's last statement leaves the
// enclosing statement list (return/break/continue/goto/panic).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// checkHookRegistration flags func literals registered as On* hooks
// that write captured state: `x.OnFoo = func(...) { captured++ }` and
// the composite-literal form `T{OnFoo: func(...) { ... }}`.
func checkHookRegistration(pass *Pass, file *ast.File, n ast.Node) {
	info := pass.Pkg.Info
	switch node := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range node.Lhs {
			if i >= len(node.Rhs) {
				break
			}
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if _, isHook := hookSelKey(info, sel); !isHook {
				continue
			}
			if lit, ok := ast.Unparen(node.Rhs[i]).(*ast.FuncLit); ok {
				checkHookBody(pass, file, sel.Sel.Name, lit)
			}
		}
	case *ast.CompositeLit:
		for _, elt := range node.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || len(key.Name) < 3 || key.Name[:2] != "On" {
				continue
			}
			fieldObj, _ := info.Uses[key].(*types.Var)
			if fieldObj == nil {
				continue
			}
			if _, isFunc := fieldObj.Type().Underlying().(*types.Signature); !isFunc {
				continue
			}
			if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
				checkHookBody(pass, file, key.Name, lit)
			}
		}
	}
}

// checkHookBody flags writes to captured state inside a hook literal.
func checkHookBody(pass *Pass, file *ast.File, hook string, lit *ast.FuncLit) {
	info := pass.Pkg.Info
	captured := func(e ast.Expr) types.Object {
		obj := rootObject(info, e)
		if obj == nil || obj.Pos() == token.NoPos {
			return nil
		}
		if lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End() {
			return nil // hook-local
		}
		return obj
	}
	report := func(s ast.Stmt, obj types.Object) {
		if !lineDirective(pass.Pkg, file, s.Pos(), "//skia:hookpure-ok") {
			pass.Reportf(s.Pos(), "hook %s mutates captured %s: hook bodies must not write simulator state (results must not depend on observers being attached); annotate //skia:hookpure-ok if the target provably never feeds results", hook, obj.Name())
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				if obj := captured(lhs); obj != nil {
					report(s, obj)
					break
				}
			}
		case *ast.IncDecStmt:
			if obj := captured(s.X); obj != nil {
				report(s, obj)
			}
		}
		return true
	})
}

// hookName renders a hook call target for diagnostics.
func hookName(fun ast.Expr) string {
	if sel, ok := ast.Unparen(fun).(*ast.SelectorExpr); ok {
		return describeLHS(sel)
	}
	return "hook"
}
