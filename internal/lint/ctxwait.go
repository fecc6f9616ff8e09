package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxWaitAnalyzer enforces the goroutine/context discipline the
// simulation runner relies on: in `internal/sim`, every spawned
// goroutine must observe cancellation, and every channel send must be
// cancellable. A goroutine that blocks forever after its context is
// cancelled leaks a worker per abandoned run; a bare send on a bounded
// queue deadlocks the whole pool when the consumer has already exited.
//
// "Observes cancellation" is established by any of:
//
//   - receiving from a `chan struct{}` — which covers both
//     `<-ctx.Done()` and the stop-channel idiom,
//   - calling `ctx.Err()` in a checked loop,
//   - passing a context.Context argument into a call (delegation:
//     the callee owns the discipline), or
//   - calling a module function that itself observes cancellation,
//     followed to a fixpoint through the whole-program call graph —
//     so `go s.worker(sh)` is proven by worker's select, and
//     `go func() { r.RunContext(ctx, ...) }()` by RunContext's
//     chunked ctx checks, across package boundaries.
//
// A send is cancellable when it is a select case alongside a default
// or a cancellation receive. Bare sends and goroutines the analyzer
// cannot prove need `//skia:ctxwait-ok <justification>` on the line —
// reserved for sends whose receiver provably outlives the sender.
var CtxWaitAnalyzer = &Analyzer{
	Name:      "ctxwait",
	Doc:       "requires goroutines in sim to observe cancellation and channel sends to be cancellable",
	Directive: "//skia:ctxwait-ok",
	Exclude: func(pkgPath string) bool {
		if strings.Contains(pkgPath, "/testdata/") {
			return false
		}
		return !strings.HasSuffix(pkgPath, "/sim")
	},
	RunProgram: runCtxWait,
}

func runCtxWait(pass *ProgramPass) error {
	obs := observesCancellation(pass.Prog)
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			checkCtxWaitFile(pass, pkg, file, obs)
		}
	}
	return nil
}

func checkCtxWaitFile(pass *ProgramPass, pkg *Package, file *ast.File, obs map[*types.Func]bool) {
	// Select-comm sends are judged with their select statement; record
	// them so the generic SendStmt walk skips them.
	inSelect := make(map[*ast.SendStmt]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			if lineDirective(pkg, file, node.Pos(), "//skia:ctxwait-ok") {
				return true
			}
			if !goroutineObserves(pkg, node.Call, obs) {
				pass.Reportf(node.Pos(), "goroutine does not observe cancellation: select on ctx.Done()/a stop channel (or delegate to a function that does), or annotate //skia:ctxwait-ok with a justification")
			}
		case *ast.SelectStmt:
			judgeSelectSends(pass, pkg, file, node, inSelect)
		case *ast.SendStmt:
			if inSelect[node] {
				return true
			}
			if lineDirective(pkg, file, node.Pos(), "//skia:ctxwait-ok") {
				return true
			}
			pass.Reportf(node.Pos(), "bare channel send can block forever after cancellation: wrap in a select with a ctx.Done()/stop case or a default, or annotate //skia:ctxwait-ok with a justification")
		}
		return true
	})
}

// judgeSelectSends checks each send case of a select: fine when the
// select also has a default or a cancellation receive, flagged
// otherwise (a select whose only comm is a send is just a bare send).
func judgeSelectSends(pass *ProgramPass, pkg *Package, file *ast.File, sel *ast.SelectStmt, inSelect map[*ast.SendStmt]bool) {
	cancellable := false
	var sends []*ast.SendStmt
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		switch c := comm.Comm.(type) {
		case nil: // default clause
			cancellable = true
		case *ast.SendStmt:
			sends = append(sends, c)
			inSelect[c] = true
		case *ast.ExprStmt, *ast.AssignStmt:
			cancellable = true // a receive case unblocks the send
		}
	}
	if cancellable {
		return
	}
	for _, s := range sends {
		if lineDirective(pkg, file, s.Pos(), "//skia:ctxwait-ok") {
			continue
		}
		pass.Reportf(s.Pos(), "select send has no default or receive case to unblock it after cancellation: add a ctx.Done()/stop case, or annotate //skia:ctxwait-ok with a justification")
	}
}

// goroutineObserves decides the spawned call: a func literal is judged
// by its own body; a resolvable callee by the whole-program fixpoint.
// Unresolvable spawns (interface methods, function values) cannot be
// proven and are reported.
func goroutineObserves(pkg *Package, call *ast.CallExpr, obs map[*types.Func]bool) bool {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return bodyObserves(pkg, lit.Body, obs)
	}
	if fn := CalleeOf(pkg.Info, call); fn != nil {
		return obs[fn]
	}
	return false
}

// observesCancellation computes, for every function declared in the
// module, whether its body observes cancellation — directly or through
// any module callee (fixpoint over the call graph).
func observesCancellation(prog *Program) map[*types.Func]bool {
	obs := make(map[*types.Func]bool)
	type site struct {
		pkg  *Package
		body *ast.BlockStmt
	}
	sites := make(map[*types.Func]site)
	for fn, ds := range prog.declIndex() {
		if ds.Decl.Body == nil {
			continue
		}
		sites[fn] = site{ds.Pkg, ds.Decl.Body}
		if directCancellation(ds.Pkg, ds.Decl.Body) {
			obs[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		//skia:detmap-ok monotone boolean fixpoint: obs only ever flips false->true, so the converged map is iteration-order independent
		for fn, s := range sites {
			if obs[fn] {
				continue
			}
			for _, callee := range prog.Callees(s.pkg, s.body) {
				if obs[callee] {
					obs[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return obs
}

// bodyObserves judges an inline body (a goroutine's func literal):
// direct evidence, or a call into an observing module function.
func bodyObserves(pkg *Package, body *ast.BlockStmt, obs map[*types.Func]bool) bool {
	if directCancellation(pkg, body) {
		return true
	}
	for _, callee := range pkg.Prog.Callees(pkg, body) {
		if obs[callee] {
			return true
		}
	}
	return false
}

// directCancellation scans a body for first-hand evidence: a receive
// from (or range over) a struct{} channel, a ctx.Err() poll, or a
// context.Context handed to a callee.
func directCancellation(pkg *Package, body ast.Node) bool {
	info := pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" && isSignalChan(info, node.X) {
				found = true
			}
		case *ast.RangeStmt:
			if isSignalChan(info, node.X) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" && isContext(exprType(info, sel.X)) {
				found = true
				return false
			}
			for _, arg := range node.Args {
				if isContext(exprType(info, arg)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isSignalChan reports whether expr is a channel of struct{} — the
// shape of both ctx.Done() and stop channels.
func isSignalChan(info *types.Info, expr ast.Expr) bool {
	ch, ok := exprType(info, expr).Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// exprType returns the static type of expr (Invalid when unknown).
func exprType(info *types.Info, expr ast.Expr) types.Type {
	if tv, ok := info.Types[expr]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}
