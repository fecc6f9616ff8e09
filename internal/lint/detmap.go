package lint

import (
	"go/ast"
	"go/types"
)

// DetMapAnalyzer flags `for range` loops over maps whose body has an
// order-sensitive effect: appending to (or writing) state declared
// outside the loop, or choosing an element via early exit. Go
// randomizes map iteration order per process, so any such loop can
// change simulation output between bit-identical runs — the
// nondeterminism class the determinism tests only sample one workload
// of.
//
// Order-INdependent map writes are permitted without annotation:
//
//   - zeroing/updating the ranged map itself at the range key
//     (m[k] = v inside `for k := range m`),
//   - deleting the range key from the ranged map,
//   - writing any map at a key derived from the range key (distinct
//     keys commute),
//   - appending to a slice that the same function subsequently sorts
//     with a total order (sort.Strings/Ints/Float64s/Slice/...).
//
// Anything else needs a `//skia:detmap-ok <justification>` directive
// on the line above the range statement — reserved for iteration whose
// order provably cannot reach simulation output (e.g. a commutative
// += accumulation whose keys are sorted before any ordered output).
var DetMapAnalyzer = &Analyzer{
	Name:      "detmap",
	Doc:       "flags map-order-dependent iteration that can leak nondeterminism into simulation output",
	Directive: "//skia:detmap-ok",
	Run:       runDetMap,
}

func runDetMap(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			detMapFunc(pass, file, fn)
			return true
		})
	}
	return nil
}

func detMapFunc(pass *Pass, file *ast.File, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if lineDirective(pass.Pkg, file, rng.Pos(), "//skia:detmap-ok") {
			return true
		}
		if msg := orderSensitive(pass, fn, rng); msg != "" {
			pass.Reportf(rng.Pos(), "map iteration order is nondeterministic and the loop %s; sort the keys first or annotate //skia:detmap-ok with a justification", msg)
		}
		return true
	})
}

// orderSensitive scans a map-range body for an order-sensitive effect
// and describes the first one found ("" when the loop is clean).
func orderSensitive(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) string {
	info := pass.Pkg.Info
	rangedObj := rootObject(info, rng.X)
	keyObj := identObject(info, rng.Key)

	// mentionsKey reports whether expr reads the range key variable —
	// a key-derived map index commutes across iteration orders.
	mentionsKey := func(expr ast.Expr) bool {
		if keyObj == nil {
			return false
		}
		found := false
		ast.Inspect(expr, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == keyObj {
				found = true
			}
			return !found
		})
		return found
	}

	// selfWrite reports whether the assignment target is an
	// order-independent map write.
	selfWrite := func(lhs ast.Expr) bool {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			return false
		}
		if _, isMap := info.Types[ix.X].Type.Underlying().(*types.Map); !isMap {
			return false
		}
		if rangedObj != nil && rootObject(info, ix.X) == rangedObj && identObject(info, ix.Index) == keyObj && keyObj != nil {
			return true // m[k] = v over the ranged map itself
		}
		return mentionsKey(ix.Index) // other map, key-derived index
	}

	var msg string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if msg != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if selfWrite(lhs) {
					continue
				}
				// append to an outer slice: order-dependent unless the
				// function sorts the result afterwards.
				if i < len(st.Rhs) {
					if call, ok := st.Rhs[i].(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
						if obj := rootObject(info, lhs); obj != nil && declaredOutside(obj, rng) {
							if !sortedLater(info, fn, obj) {
								msg = "appends to " + obj.Name() + " (declared outside the loop) without sorting it"
							}
							continue
						}
					}
				}
				if obj := rootObject(info, lhs); obj != nil && declaredOutside(obj, rng) {
					msg = "writes " + describeLHS(lhs) + " (state declared outside the loop)"
				}
			}
		case *ast.IncDecStmt:
			if obj := rootObject(info, st.X); obj != nil && declaredOutside(obj, rng) {
				msg = "updates counter " + describeLHS(st.X) + " per iteration in map order"
			}
		case *ast.CallExpr:
			if isBuiltin(info, st, "delete") && len(st.Args) == 2 {
				if rootObject(info, st.Args[0]) == rangedObj && mentionsKey(st.Args[1]) {
					return false // delete(m, k) over the ranged map
				}
				if obj := rootObject(info, st.Args[0]); obj != nil && declaredOutside(obj, rng) && !mentionsKey(st.Args[1]) {
					msg = "deletes from " + obj.Name() + " at a key independent of the range key"
				}
			}
		case *ast.ReturnStmt:
			msg = "returns from inside the loop (selects an arbitrary element)"
		case *ast.BranchStmt:
			// A labeled break targets an outer loop; an unlabeled break
			// of this loop also commits to whichever element came first.
			if st.Tok.String() == "break" {
				msg = "breaks out of the loop (selects an arbitrary element)"
			}
		}
		return true
	})
	return msg
}

// describeLHS renders an assignment target for a diagnostic.
func describeLHS(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return describeLHS(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return describeLHS(t.X) + "[...]"
	case *ast.StarExpr:
		return "*" + describeLHS(t.X)
	}
	return "state"
}

// rootObject resolves the base identifier of an expression chain
// (x.f[i].g -> object of x), or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			if o := info.Uses[t]; o != nil {
				return o
			}
			return info.Defs[t]
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// identObject resolves a bare identifier expression to its object.
func identObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// declaredOutside reports whether obj was declared outside the range
// statement (captured state rather than a loop-local).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// sortedLater reports whether fn contains a sort.* call whose first
// argument is rooted at obj — the collect-then-sort idiom that makes a
// map-order append deterministic.
func sortedLater(info *types.Info, fn *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		p := pn.Imported().Path()
		if p != "sort" && p != "slices" {
			return true
		}
		if rootObject(info, call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}
