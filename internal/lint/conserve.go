package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// ConserveAnalyzer enforces counter conservation across the whole
// module at once: every numeric field of a module-defined *Stats
// struct (SBDStats, SBBStats, frontend.Stats, btb.Stats, …) that is
// incremented anywhere must be consumed by a registered exporter —
// read in a value context somewhere in the module (report/table
// assembly, a conservation check, or a test), or carried on a
// serialized schema via a json struct tag. A counter that is bumped
// but never read is either dead weight or, worse, a result someone
// believes is published when it is not. Histogram fields of such
// structs follow the same rule with Observe as the increment: a
// histogram that accumulates samples nobody renders is the same dead
// weight.
//
// Test files count as read sites (matched by field name, since test
// packages are not type-checked): conservation tests are legitimate
// counter consumers.
var ConserveAnalyzer = &Analyzer{
	Name:       "conserve",
	Doc:        "pairs every incremented stats counter with an exporter",
	RunProgram: runConserve,
}

func runConserve(pass *ProgramPass) error {
	checkCounters(pass)
	return nil
}

// counterField is one tracked *Stats field.
type counterField struct {
	owner string // type name, e.g. SBDStats
	obj   *types.Var
	pos   token.Pos
	json  bool // has a json struct tag (serialized schema)
}

func checkCounters(pass *ProgramPass) {
	// Collect the counter fields of every module-defined *Stats struct.
	fields := make(map[*types.Var]*counterField)
	byName := make(map[string][]*counterField) // test-file read matching
	for _, pkg := range pass.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !strings.HasSuffix(name, "Stats") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !isCounterLike(f.Type()) {
					continue
				}
				tag := reflect.StructTag(st.Tag(i)).Get("json")
				cf := &counterField{owner: name, obj: f, pos: f.Pos(), json: tag != "" && tag != "-"}
				fields[f] = cf
				byName[f.Name()] = append(byName[f.Name()], cf)
			}
		}
	}
	if len(fields) == 0 {
		return
	}

	incremented := make(map[*types.Var]bool)
	read := make(map[*types.Var]bool)
	for _, pkg := range pass.Packages {
		info := pkg.Info
		fieldOf := func(e ast.Expr) *types.Var {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return nil
			}
			f, ok := s.Obj().(*types.Var)
			if !ok {
				return nil
			}
			if _, tracked := fields[f]; !tracked {
				return nil
			}
			return f
		}
		for _, file := range pkg.Files {
			writeTargets := make(map[ast.Expr]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.IncDecStmt:
					if f := fieldOf(st.X); f != nil {
						incremented[f] = true
						writeTargets[st.X] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if f := fieldOf(lhs); f != nil {
							writeTargets[lhs] = true
							if st.Tok == token.ADD_ASSIGN {
								incremented[f] = true
							}
						}
					}
				case *ast.CallExpr:
					// h.Observe(v) on a tracked Histogram field is its
					// increment form, not a read.
					if sel, ok := st.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Observe" {
						if f := fieldOf(sel.X); f != nil && isHistogram(f.Type()) {
							incremented[f] = true
							writeTargets[sel.X] = true
						}
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && !writeTargets[sel] {
					if f := fieldOf(sel); f != nil {
						read[f] = true
					}
				}
				return true
			})
		}
		// Test files are parsed without type information; a selector
		// with a tracked field's name is accepted as a read. The
		// conservation tests living in _test.go files are exactly the
		// consumers this check wants to credit.
		for _, file := range pkg.TestFiles {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					for _, cf := range byName[sel.Sel.Name] {
						read[cf.obj] = true
					}
				}
				return true
			})
		}
	}

	var out []*counterField
	for f, cf := range fields {
		if incremented[f] && !read[f] && !cf.json {
			out = append(out, cf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	for _, cf := range out {
		pass.Reportf(cf.pos, "counter %s.%s is incremented but never read by a report, table, test, or json schema: export it or delete it", cf.owner, cf.obj.Name())
	}
}

// isCounterLike reports whether a *Stats field participates in counter
// conservation: numeric basics (classic counters/gauges) and Histogram
// fields, whose Observe calls are their increments.
func isCounterLike(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsNumeric != 0
	}
	return isHistogram(t)
}

// isHistogram matches named Histogram types (stats.Histogram, or a
// fixture-local equivalent) by name: the analyzer cares about the
// Observe-accumulates/render-consumes shape, not the concrete package.
func isHistogram(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Histogram"
}
