package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// DirectiveAnalyzer validates the //skia: directive grammar itself: a
// misspelled directive (`//skia:sharedok`) silently suppresses nothing
// while its author believes the exception is recorded, and a bare
// `-ok` directive with no justification defeats the point of requiring
// one. Suppressions are part of the audited invariant surface, so the
// grammar is checked as strictly as the invariants.
//
// The grammar (also tabulated in the README):
//
//	//skia:noalloc                      marker, no argument
//	//skia:serial                       marker, no argument
//	//skia:detmap-ok <justification>    suppression, justification required
//	//skia:nondet-ok <justification>    suppression, justification required
//	//skia:statlock-ok <justification>  suppression, justification required
//	//skia:shared-ok <justification>    suppression, justification required
//
// Only comments beginning exactly `//skia:` (no space, the Go
// directive convention) are directives; prose mentioning a directive
// is untouched.
var DirectiveAnalyzer = &Analyzer{
	Name: "directive",
	Doc:  "validates //skia: directive spelling and required justifications",
	Run:  runDirective,
}

// skiaDirectives maps each known directive name to whether it requires
// a justification argument.
var skiaDirectives = map[string]bool{
	"noalloc":     false,
	"serial":      false,
	"detmap-ok":   true,
	"nondet-ok":   true,
	"statlock-ok": true,
	"shared-ok":   true,
}

func runDirective(pass *Pass) error {
	files := append(append([]*ast.File{}, pass.Pkg.Files...), pass.Pkg.TestFiles...)
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//skia:")
				if !ok {
					continue
				}
				name, arg, _ := strings.Cut(rest, " ")
				needsArg, known := skiaDirectives[name]
				if !known {
					pass.Reportf(c.Pos(), "unknown directive //skia:%s: it suppresses nothing; known directives are %s", name, knownDirectiveList())
					continue
				}
				if needsArg && strings.TrimSpace(arg) == "" {
					pass.Reportf(c.Pos(), "directive //skia:%s requires a justification: suppressions are audited, say why the exception is sound", name)
				}
			}
		}
	}
	return nil
}

// knownDirectiveList renders the valid names, sorted, for diagnostics.
func knownDirectiveList() string {
	names := make([]string, 0, len(skiaDirectives))
	for n := range skiaDirectives {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic: the suite's own detmap discipline
	return strings.Join(names, ", ")
}
