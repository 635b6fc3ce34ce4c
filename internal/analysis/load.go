package analysis

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

// Package is one loaded, type-checked package.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// deps are the directly imported module-internal packages, in sorted
	// import-path order. RunAll walks them to analyze the dependency
	// closure imports-first, which is what makes cross-package facts sound.
	deps []*Package
}

// Loader parses and type-checks packages of the enclosing module using only
// the standard library: module-internal imports are resolved from source
// (recursively, memoized), everything else through the compiler's export
// data. Test files are excluded — the invariants mgpulint polices concern
// the artifact-producing library code.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader builds a loader for the module whose go.mod governs dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "gc", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and extracts the
// module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// LoadDir loads the package in one directory (absolute or relative to the
// process working directory).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// Expand resolves command-line patterns into package directories: a literal
// directory, or dir/... for the tree below it. Directories named testdata
// (and hidden or underscore-prefixed ones) are skipped by /... walks, same
// as the go tool, but can still be named literally — that is how the
// analyzer fixtures are linted on purpose.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, rec := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" {
			base = "."
		}
		if !rec {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load loads every pattern and returns the packages in deterministic
// (directory) order.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// load type-checks the package at an import path inside the module.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		// Honour build constraints the way the go command does for a
		// default build (no extra tags), so tag-selected variants of a
		// file are not type-checked together.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{Importer: importerFunc(l.resolve)}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Dir:        dir,
		ImportPath: path,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	// Record module-internal direct imports: they were loaded from source
	// by resolve during Check, so the memo table has them all by now.
	var depPaths []string
	for _, imp := range tpkg.Imports() {
		p := imp.Path()
		if p == l.ModulePath || strings.HasPrefix(p, l.ModulePath+"/") {
			depPaths = append(depPaths, p)
		}
	}
	sort.Strings(depPaths)
	for _, p := range depPaths {
		if dep, ok := l.pkgs[p]; ok {
			pkg.deps = append(pkg.deps, dep)
		}
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// resolve imports module-internal packages from source and everything else
// (the standard library) from compiler export data.
func (l *Loader) resolve(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
