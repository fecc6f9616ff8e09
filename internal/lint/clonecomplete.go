package lint

import (
	"go/ast"
	"go/types"
)

// CloneCompleteAnalyzer guards the checkpoint-corruption bug class the
// sampling era created: a field added to any simulator struct that the
// type's `Clone()` (or unexported `clone()`) silently misses corrupts
// every sampled result while staying bit-identical on the exact path,
// because the clone either shares mutable state with the original or
// restarts it from the zero value.
//
// For every module type with a Clone/clone method, the analyzer proves
// each struct field is *mentioned* by the method:
//
//   - as a key in a composite literal of the receiver type
//     (`&T{f: ...}`),
//   - as an assignment target on a non-receiver variable of the
//     receiver type (`n.f = ...`, including nested fix-ups like
//     `n.sbb.OnRemove = ...`, which mention sbb), or
//   - implicitly, when the method value-copies the whole receiver
//     (`c := *t` / a bare value-receiver copy), which mentions every
//     field at once.
//
// Function-typed fields are exempt: hooks are closures over the
// original owner and the established Clone contract is that owners
// re-wire them (that contract is what hookpure polices).
//
// An unmentioned field needs `//skia:shared-ok <justification>` on its
// declaration (doc or trailing comment) — reserved for fields whose
// sharing or reset is provably sound: immutable workload aliases,
// allocation-recycling scratch, observability attachments that do not
// carry over.
//
// Whether a *mentioned* field is copied deeply enough is out of scope
// (that is what the randomized clone divergence tests check at
// runtime); the analyzer's job is making the "method misses the field
// entirely" failure mode impossible to commit.
//
// Facts published (for the fixture-backed self-test that proves the
// checkpointed types really were analyzed):
//
//	clonecomplete.checked  on the type name — a clone method was found
//	                       and its field coverage verified
//	clonecomplete.complete on the type name — checked, and every field
//	                       was mentioned or annotated
var CloneCompleteAnalyzer = &Analyzer{
	Name:      "clonecomplete",
	Doc:       "proves every struct field is copied or annotated //skia:shared-ok in Clone methods",
	Directive: "//skia:shared-ok",
	Run:       runCloneComplete,
}

func runCloneComplete(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "Clone" && fd.Name.Name != "clone" {
				continue
			}
			checkCloneMethod(pass, fd)
		}
	}
	return nil
}

// checkCloneMethod verifies one Clone/clone method's field coverage.
func checkCloneMethod(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	spec := structSpec(pass.Pkg, named)
	if spec == nil {
		return // defined via an alias or in generated code we cannot see
	}

	recvObj := receiverObject(info, fd)
	mentioned, allCopied := cloneMentions(info, fd.Body, named, recvObj)

	facts := pass.Prog.Facts()
	facts.Set(named.Obj(), "clonecomplete.checked", true)
	complete := true
	for _, field := range spec.Fields.List {
		if _, isFunc := fieldType(info, field).Underlying().(*types.Signature); isFunc {
			continue // hooks: owners re-wire, never copy (see hookpure)
		}
		if hasDirective(field.Doc, "//skia:shared-ok") || hasDirective(field.Comment, "//skia:shared-ok") {
			continue
		}
		for _, name := range field.Names {
			if allCopied || mentioned[name.Name] {
				continue
			}
			complete = false
			pass.Reportf(name.Pos(), "field %s.%s is not copied by (%s).%s: checkpoint clones will share or zero it; copy it explicitly or annotate //skia:shared-ok with a justification",
				named.Obj().Name(), name.Name, named.Obj().Name(), fd.Name.Name)
		}
		if len(field.Names) == 0 { // embedded field
			name := embeddedFieldName(field.Type)
			if name != "" && !allCopied && !mentioned[name] {
				complete = false
				pass.Reportf(field.Pos(), "embedded field %s.%s is not copied by (%s).%s: copy it explicitly or annotate //skia:shared-ok with a justification",
					named.Obj().Name(), name, named.Obj().Name(), fd.Name.Name)
			}
		}
	}
	if complete {
		facts.Set(named.Obj(), "clonecomplete.complete", true)
	}
}

// cloneMentions collects the field names the method body write-mentions
// for the receiver type. allCopied reports a whole-receiver value copy
// (`c := *t`), which mentions every field at once.
func cloneMentions(info *types.Info, body *ast.BlockStmt, named *types.Named, recvObj types.Object) (set map[string]bool, allCopied bool) {
	set = make(map[string]bool)
	sameNamed := func(t types.Type) bool {
		n := namedOf(t)
		return n != nil && n.Obj() == named.Obj()
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			if tv, ok := info.Types[node]; ok && sameNamed(tv.Type) {
				for _, elt := range node.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if name, ok := cloneTargetField(info, lhs, sameNamed, recvObj); ok {
					set[name] = true
				}
			}
			// c := *t (or c := t for a value receiver): the whole
			// receiver is value-copied, every field is mentioned.
			for _, rhs := range node.Rhs {
				if isReceiverCopy(info, rhs, recvObj) {
					allCopied = true
				}
			}
		}
		return true
	})
	return set, allCopied
}

// cloneTargetField resolves an assignment target to the receiver-type
// field it mentions: the innermost selector whose base is a
// non-receiver variable of the receiver type (n.f = ..., n.f.g = ...
// both mention f).
func cloneTargetField(info *types.Info, lhs ast.Expr, sameNamed func(types.Type) bool, recvObj types.Object) (string, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			if base := identObject(info, e.X); base != nil && base != recvObj {
				if _, isVar := base.(*types.Var); isVar && sameNamed(base.Type()) {
					return e.Sel.Name, true
				}
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return "", false
		}
	}
}

// isReceiverCopy reports whether expr value-copies the whole receiver:
// `*t` for pointer receivers, the bare receiver for value receivers.
func isReceiverCopy(info *types.Info, expr ast.Expr, recvObj types.Object) bool {
	if recvObj == nil {
		return false
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.StarExpr:
		return identObject(info, e.X) == recvObj
	case *ast.Ident:
		if info.Uses[e] != recvObj {
			return false
		}
		_, isPtr := recvObj.Type().Underlying().(*types.Pointer)
		return !isPtr // bare pointer receiver aliases; only a value receiver copies
	}
	return false
}

// receiverObject returns the receiver variable's object, or nil for an
// unnamed receiver.
func receiverObject(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fd.Recv.List[0].Names[0]]
}

// structSpec finds the AST struct type literal defining named within
// pkg, for field doc/comment directive access.
func structSpec(pkg *Package, named *types.Named) *ast.StructType {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != named.Obj().Name() {
					continue
				}
				if pkg.Info.Defs[ts.Name] != named.Obj() {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// fieldType resolves the declared type of a struct field.
func fieldType(info *types.Info, field *ast.Field) types.Type {
	if tv, ok := info.Types[field.Type]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// embeddedFieldName extracts the implicit field name of an embedded
// field type expression (pkg.T, *T, T).
func embeddedFieldName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedFieldName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr: // generic embedded type
		return embeddedFieldName(e.X)
	}
	return ""
}
