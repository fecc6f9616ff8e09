package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	Path  string // import path, e.g. repro/internal/core
	Name  string
	Dir   string
	Prog  *Program
	Files []*ast.File // non-test files, build-tag filtered
	// TestFiles are the package's _test.go files, parsed but NOT
	// type-checked (external test packages would need a second checker
	// configuration). Whole-program analyzers use them as read-site
	// evidence: conservation tests are legitimate counter consumers.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Program is a loaded module: every package, sharing one FileSet.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Dir        string // module root (where go.mod lives)
	Packages   []*Package
	byPath     map[string]*Package

	stdImporter types.Importer
	loading     map[string]bool

	// facts backs Facts (facts.go), built lazily.
	facts *FactStore
}

// ByPath returns the loaded package with the given import path.
func (p *Program) ByPath(path string) *Package { return p.byPath[path] }

// modulePath extracts the module path from go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Load parses and type-checks module packages under root. With no
// dirs, every package directory under root is loaded (skipping
// testdata, hidden, and underscore-prefixed directories — the same
// exclusions the go tool's ./... pattern applies). With explicit dirs
// (relative to root), exactly those directories are loaded, which is
// how fixture packages under testdata are reached.
func Load(root string, dirs ...string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: mod,
		Dir:        root,
		byPath:     make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	prog.stdImporter = importer.ForCompiler(prog.Fset, "gc", nil)

	if len(dirs) == 0 {
		dirs, err = packageDirs(root)
		if err != nil {
			return nil, err
		}
	}
	for _, d := range dirs {
		rel := filepath.ToSlash(filepath.Clean(d))
		path := mod
		if rel != "." {
			path = mod + "/" + rel
		}
		if _, err := prog.load(path); err != nil {
			return nil, err
		}
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Path < prog.Packages[j].Path
	})
	return prog, nil
}

// packageDirs walks root for directories containing Go files.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				dirs = append(dirs, rel)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// load type-checks one module package (memoized, cycle-checked).
func (p *Program) load(path string) (*Package, error) {
	if pkg, ok := p.byPath[path]; ok {
		return pkg, nil
	}
	if p.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	p.loading[path] = true
	defer delete(p.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, p.ModulePath), "/")
	dir := filepath.Join(p.Dir, filepath.FromSlash(rel))

	// go/build applies the default build constraints (tags, GOOS), so
	// mutually exclusive files like the skiainvariants on/off pair do
	// not double-define symbols.
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	pkg := &Package{Path: path, Name: bp.Name, Dir: dir, Prog: p}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	for _, name := range append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...) {
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.TestFiles = append(pkg.TestFiles, f)
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if ipath == "unsafe" {
				return types.Unsafe, nil
			}
			if ipath == p.ModulePath || strings.HasPrefix(ipath, p.ModulePath+"/") {
				sub, err := p.load(ipath)
				if err != nil {
					return nil, err
				}
				return sub.Types, nil
			}
			return p.stdImporter.Import(ipath)
		}),
	}
	tpkg, err := conf.Check(path, p.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	p.byPath[path] = pkg
	p.Packages = append(p.Packages, pkg)
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
