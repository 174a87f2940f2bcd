package ivlint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package the analyzers run over.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Module is the module-wide view the package was loaded with, for
	// analyzers whose rule spans packages; nil for a package loaded alone.
	Module *Module
}

// Module is every non-test package of the repository: the main module and
// benchmark/, which has a go.mod of its own, type-checked once. It is the
// module-wide pass's input.
type Module struct {
	Packages []*Package

	// nocaller's reference set and interfaces, built on first use.
	calls  map[funcKey]bool
	ifaces map[string][]methodSigs
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves the patterns with `go list -deps -export -json`, then
// parses and type-checks each matched (non-dependency) package from
// source. Dependencies are never re-analyzed: their compiled export data
// — produced by the same `go list` invocation — feeds the type checker.
// Whatever the patterns, every returned package shares one Module that
// holds all packages of both modules, so a cross-package rule sees every
// reference.
//
// This deliberately reimplements a sliver of golang.org/x/tools
// go/packages: the module is stdlib-only (see DESIGN.md), and the standard
// toolchain already provides everything a single-module analysis needs.
func Load(patterns []string) ([]*Package, error) {
	fset := token.NewFileSet()
	pkgs, err := loadIn(fset, "", patterns, nil)
	if err != nil {
		return nil, err
	}
	dirs, err := moduleDirs()
	if err != nil {
		return nil, err
	}
	have := map[string]*Package{}
	for _, p := range pkgs {
		have[p.PkgPath] = p
	}
	mod := &Module{}
	for _, dir := range dirs {
		all, err := loadIn(fset, dir, []string{"./..."}, have)
		if err != nil {
			return nil, err
		}
		mod.Packages = append(mod.Packages, all...)
	}
	for _, p := range pkgs {
		p.Module = mod
	}
	return pkgs, nil
}

// moduleDirs returns the main module's directory and benchmark/, the one
// module nested in it. A module added elsewhere must be listed here, or
// nocaller reports what only that module references.
func moduleDirs() ([]string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOMOD: %v", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	return []string{root, filepath.Join(root, "benchmark")}, nil
}

// loadIn runs `go list` for the patterns in dir (the current directory
// when empty) and type-checks the matched packages from source, reusing
// those already in have.
func loadIn(fset *token.FileSet, dir string, patterns []string, have map[string]*Package) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := map[string]string{}
	var roots []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			roots = append(roots, p)
		}
	}

	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, lp := range roots {
		if len(lp.GoFiles) == 0 || len(lp.CgoFiles) > 0 {
			continue
		}
		if p, ok := have[lp.ImportPath]; ok {
			pkgs = append(pkgs, p)
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   lp.ImportPath,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}

// newInfo allocates the types.Info maps the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
