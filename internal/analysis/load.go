package analysis

// load.go is the package loader behind cmd/spinlint: a standard-library
// replacement for golang.org/x/tools/go/packages. Module-local packages
// are enumerated with `go list -json -deps`, parsed with comments, and
// type-checked in dependency order against a shared file set; imports of
// standard-library packages are resolved by the stdlib source importer
// (go/importer "source" mode), so the loader needs no pre-built export
// data and no network.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked module-local package.
type Package struct {
	Path  string // import path
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// RefOnly marks a package loaded only so that its references count
	// (see Load); no analyzer reports in it.
	RefOnly bool
}

// Program is a load result: every requested module-local package (plus
// its module-local dependencies) with shared position and annotation
// state.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // dependency order
	ByPath   map[string]*Package

	// Annotation facts, program-wide (see annotations.go).
	Secret       map[types.Object]bool   // //spin:secret values
	SecretReturn map[types.Object]bool   // funcs whose results are secret
	Vartime      map[types.Object]bool   // //spin:vartime funcs
	GuardedBy    map[types.Object]string // field -> owning mutex field name

	// supp maps filename -> line -> analyzers suppressed on that line.
	supp map[string]map[int][]string
	// secretLines maps filename -> lines carrying a bare //spin:secret
	// trailing comment, which marks the variables declared on that line
	// (the escape hatch for `x, err := ...` short declarations, which
	// have no doc-comment position).
	secretLines map[string]map[int]bool

	// std imports standard-library packages; used caches testonly's
	// program-wide reference set.
	std  types.Importer
	used *usage
}

// suppressed reports whether a finding by analyzer name at pos is covered
// by a //spinlint:ignore comment on the same line or the line above.
func (prog *Program) suppressed(name string, pos token.Position) bool {
	lines := prog.supp[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, a := range lines[l] {
			if a == name || a == "all" {
				return true
			}
		}
	}
	return false
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Dir string }

	// refOnly marks a package loaded only as a source of references.
	refOnly bool
}

// Load type-checks the module-local packages matched by patterns (plus
// their module-local dependencies), resolving from dir. So that testonly
// sees every caller, it also loads, as reference-only packages that no
// analyzer reports in, the rest of the main module and every module in a
// directory directly under its root (bench/, which ./... skips).
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	if len(listed) == 0 {
		return nil, fmt.Errorf("analysis: no module-local packages match %s", strings.Join(patterns, " "))
	}
	root := listed[0].Module.Dir
	seen := make(map[string]bool)
	for _, lp := range listed {
		seen[lp.ImportPath] = true
	}
	// The pattern is well formed, so Glob cannot fail.
	mods, _ := filepath.Glob(filepath.Join(root, "*", "go.mod"))
	for _, mod := range append([]string{filepath.Join(root, "go.mod")}, mods...) {
		more, err := goList(filepath.Dir(mod), "./...")
		if err != nil {
			return nil, err
		}
		for _, lp := range more {
			if !seen[lp.ImportPath] {
				seen[lp.ImportPath] = true
				lp.refOnly = true
				listed = append(listed, lp)
			}
		}
	}
	return typecheck(listed)
}

// goList returns the non-standard packages matched by patterns and their
// dependencies, in dependency order, resolving from dir.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s in %s: %v\n%s", strings.Join(patterns, " "), dir, err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Standard || lp.Name == "" || lp.Module == nil {
			continue
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// typecheck parses and type-checks the listed packages, which must arrive
// in dependency order (module-local imports resolve only backwards).
func typecheck(listed []listedPackage) (*Program, error) {
	// The stdlib source importer consults go/build; with cgo enabled it
	// would try to preprocess cgo files in net and os/user. The pure-Go
	// fallbacks type-check fine and this is analysis, not codegen.
	build.Default.CgoEnabled = false

	prog := &Program{
		Fset:         token.NewFileSet(),
		ByPath:       make(map[string]*Package),
		Secret:       make(map[types.Object]bool),
		SecretReturn: make(map[types.Object]bool),
		Vartime:      make(map[types.Object]bool),
		GuardedBy:    make(map[types.Object]string),
		supp:         make(map[string]map[int][]string),
		secretLines:  make(map[string]map[int]bool),
	}
	prog.std = importer.ForCompiler(prog.Fset, "source", nil)
	imp := &progImporter{prog: prog, std: prog.std}

	for _, lp := range listed {
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, RefOnly: lp.refOnly}
		for _, name := range lp.GoFiles {
			full := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(prog.Fset, full, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			pkg.Files = append(pkg.Files, f)
			prog.collectSuppressions(full, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, prog.Fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
		}
		pkg.Name = tpkg.Name()
		pkg.Types = tpkg
		pkg.Info = info
		prog.Packages = append(prog.Packages, pkg)
		prog.ByPath[lp.ImportPath] = pkg
		prog.collectAnnotations(pkg)
	}
	return prog, nil
}

// progImporter resolves module-local imports to already-checked packages
// and everything else through the stdlib source importer, so a secret
// annotation in one package is visible (as the same types.Object) from
// every package that imports it.
type progImporter struct {
	prog *Program
	std  types.Importer
}

func (i *progImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := i.prog.ByPath[path]; ok {
		return pkg.Types, nil
	}
	return i.std.Import(path)
}

// collectSuppressions records //spinlint:ignore comments by file and line.
// The format is `//spinlint:ignore <analyzer>[,<analyzer>] <justification>`;
// a suppression with no justification is malformed and does not suppress.
func (prog *Program) collectSuppressions(filename string, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == "//spin:secret" {
				line := prog.Fset.Position(c.Pos()).Line
				if prog.secretLines[filename] == nil {
					prog.secretLines[filename] = make(map[int]bool)
				}
				prog.secretLines[filename][line] = true
			}
			text, ok := strings.CutPrefix(c.Text, "//spinlint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				continue // malformed: analyzer name and justification required
			}
			line := prog.Fset.Position(c.Pos()).Line
			if prog.supp[filename] == nil {
				prog.supp[filename] = make(map[int][]string)
			}
			for _, name := range strings.Split(fields[0], ",") {
				prog.supp[filename][line] = append(prog.supp[filename][line], name)
			}
		}
	}
}
