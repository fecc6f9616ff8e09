// Package lint is the simulator's static-analysis suite: five
// invariant checkers (detmap, nondet, noalloc, conserve, statlock)
// that enforce, at CI time, the properties the paper's published
// figures depend on — deterministic simulation, allocation-free hot
// paths, and counter conservation — over every package instead of the
// single workloads the runtime tests sample.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, testdata fixtures with `// want`
// comments) but is built on the standard library alone, because this
// module vendors nothing. Swapping an analyzer onto x/tools later is
// mechanical: the Run signature and reporting contract are the same.
//
// # Directives
//
// Analyzers honor machine-readable comments ("directives"):
//
//	//skia:noalloc
//	    On a function's doc comment: the function is a simulation hot
//	    path; any compiler-reported heap escape inside it fails lint
//	    (checked against `go build -gcflags=-m` output).
//
//	//skia:serial
//	    On a struct type's doc comment: values are single-goroutine
//	    (one collector per run); touching a captured instance inside a
//	    `go` statement without a mutex fails lint.
//
//	//skia:detmap-ok <justification>
//	    On the line before a map-range statement: the iteration order
//	    is deliberately allowed to vary because it cannot reach any
//	    simulation output. A justification is required.
//
//	//skia:nondet-ok <justification>
//	    On the line before a wall-clock or RNG use in a simulation
//	    package: the value feeds throughput observability, never
//	    simulated state. A justification is required.
//
//	//skia:statlock-ok <justification>
//	    On a go statement handing a //skia:serial value to a
//	    goroutine: access is provably exclusive (e.g. joined before
//	    the next touch). A justification is required.
//
//	//skia:shared-ok <justification>
//	    On a struct field declaration: the field is deliberately not
//	    copied by the type's Clone method — an immutable alias,
//	    recycling scratch, or a non-carrying observability
//	    attachment. A justification is required.
//
//	//skia:ctxwait-ok <justification>
//	    On a go statement or channel send in sim: the goroutine
//	    or send provably cannot outlive its receiver. A justification
//	    is required.
//
//	//skia:atomicmix-ok <justification>
//	    On a plain access to a variable elsewhere accessed via
//	    sync/atomic: the access is ordered by other means (pre-
//	    publication init, lock covering all writers). A justification
//	    is required.
//
//	//skia:hookpure-ok <justification>
//	    On an unguarded On* hook call or a captured-state write inside
//	    a hook body: the hook is proven non-nil or the target never
//	    feeds results. A justification is required.
//
// The directive analyzer enforces this grammar itself: unknown names
// and missing justifications are findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Exactly one of Run and
// RunProgram is set: Run checks a single package at a time, RunProgram
// sees the whole module at once (for cross-package properties like
// counter conservation and compiler escape output).
type Analyzer struct {
	Name string
	Doc  string

	// Directive is the //skia: suppression directive this analyzer
	// honors ("" when it has none). Surfaced in -json output so CI
	// artifacts say how each finding can be waived.
	Directive string

	// Exclude, when non-nil, reports import paths the analyzer does
	// not apply to (allowlisted packages). Fixture packages never
	// match the module path, so they are always in scope.
	Exclude func(pkgPath string) bool

	Run        func(*Pass) error
	RunProgram func(*ProgramPass) error
}

// Diagnostic is one finding, positioned for file:line:col output.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through a per-package analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole loaded module through a program-level
// analyzer. Packages excluded by Analyzer.Exclude are pre-filtered.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Packages []*Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in reporting order. The second
// generation (clonecomplete, ctxwait, atomicmix, hookpure, directive)
// statically enforces the invariants the sampling era
// introduced dynamically: checkpoint clone completeness, goroutine
// cancellation discipline, atomics consistency, and hook purity.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetMapAnalyzer,
		NonDetAnalyzer,
		NoAllocAnalyzer,
		ConserveAnalyzer,
		StatLockAnalyzer,
		CloneCompleteAnalyzer,
		CtxWaitAnalyzer,
		AtomicMixAnalyzer,
		HookPureAnalyzer,
		DirectiveAnalyzer,
	}
}

// RunAnalyzers applies the given analyzers to prog and returns every
// diagnostic sorted by position. An analyzer error (not a finding; an
// inability to run) aborts with that error.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		inScope := func(pkg *Package) bool {
			return a.Exclude == nil || !a.Exclude(pkg.Path)
		}
		if a.RunProgram != nil {
			pp := &ProgramPass{Analyzer: a, Prog: prog, report: collect}
			for _, pkg := range prog.Packages {
				if inScope(pkg) {
					pp.Packages = append(pp.Packages, pkg)
				}
			}
			if err := a.RunProgram(pp); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range prog.Packages {
			if !inScope(pkg) {
				continue
			}
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// hasDirective reports whether a comment group contains the given
// //skia: directive on a line of its own (arguments after the
// directive word are allowed: they are the justification).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	directive = strings.TrimPrefix(directive, "//")
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// lineDirective reports whether the statement starting at pos is
// annotated with the directive: a comment on the line immediately
// above it (or trailing on the same line) in the same file.
func lineDirective(pkg *Package, file *ast.File, pos token.Pos, directive string) bool {
	fset := pkg.Prog.Fset
	directive = strings.TrimPrefix(directive, "//")
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == directive || strings.HasPrefix(text, directive+" ") {
				return true
			}
		}
	}
	return false
}

// enclosingFile returns the *ast.File of pkg containing pos.
func enclosingFile(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// deref unwraps pointers and named types down to the underlying type.
func deref(t types.Type) types.Type {
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		return t.Underlying()
	}
}

// namedOf unwraps pointers to reach a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}
