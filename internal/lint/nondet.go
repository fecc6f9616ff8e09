package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NonDetAnalyzer forbids ambient nondeterminism sources inside
// simulation packages: wall-clock reads (time.Now/Since/Until) and the
// global math/rand generator (any package-level function other than
// the explicit constructors rand.New / rand.NewSource). Simulated
// behavior must be a pure function of the workload seed; workloads
// thread a seeded *rand.Rand instead.
//
// Allowlisted packages (throughput observability and CLI envelopes):
// internal/metrics, cmd/*, examples/*. Inside simulation packages, a
// wall-clock read that feeds only run timing can be annotated with
// `//skia:nondet-ok <justification>` on the line above.
var NonDetAnalyzer = &Analyzer{
	Name:      "nondet",
	Doc:       "forbids wall-clock and global-RNG use in simulation packages",
	Directive: "//skia:nondet-ok",
	Exclude:   nonDetExcluded,
	Run:       runNonDet,
}

func nonDetExcluded(path string) bool {
	const mod = "repro"
	return path == mod+"/internal/metrics" ||
		strings.HasPrefix(path, mod+"/internal/metrics/") ||
		strings.HasPrefix(path, mod+"/cmd/") ||
		strings.HasPrefix(path, mod+"/examples/")
}

// nonDetTimeFuncs are the wall-clock reads. time.Since/Until read the
// clock internally.
var nonDetTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// nonDetRandOK are the math/rand package-level names that construct
// explicitly seeded state instead of touching the global generator.
var nonDetRandOK = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runNonDet(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
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
			switch pn.Imported().Path() {
			case "time":
				if nonDetTimeFuncs[sel.Sel.Name] && isFuncUse(info, sel) {
					if !lineDirective(pass.Pkg, file, sel.Pos(), "//skia:nondet-ok") {
						pass.Reportf(sel.Pos(), "wall-clock read time.%s in simulation package %s: simulated state must be deterministic; thread cycle counts instead, or annotate //skia:nondet-ok if this feeds only run timing", sel.Sel.Name, pass.Pkg.Path)
					}
				}
			case "math/rand", "math/rand/v2":
				if isFuncUse(info, sel) && !nonDetRandOK[sel.Sel.Name] {
					if !lineDirective(pass.Pkg, file, sel.Pos(), "//skia:nondet-ok") {
						pass.Reportf(sel.Pos(), "global RNG rand.%s in simulation package %s: thread a seeded *rand.Rand (rand.New(rand.NewSource(seed))) through the workload instead", sel.Sel.Name, pass.Pkg.Path)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isFuncUse reports whether the selector resolves to a function (not a
// type or constant of the package).
func isFuncUse(info *types.Info, sel *ast.SelectorExpr) bool {
	_, ok := info.Uses[sel.Sel].(*types.Func)
	return ok
}
