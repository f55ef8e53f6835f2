// Package analysis is the repo-owned static-analysis framework behind
// cmd/spinlint. It mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built entirely on the standard
// library (go/ast, go/types, go/parser and a `go list` package loader), so
// it runs in hermetic build environments with no module downloads.
//
// The framework encodes the repo's security, API and size invariants as
// five analyzers:
//
//   - ctsecret: annotation-driven secret-taint analysis. Values marked
//     //spin:secret (PINs, Shamir share material, BLS secret keys, root
//     keys) must not influence branches, array/map indices, `==`
//     comparisons, or calls into variable-time code (math/big and anything
//     marked //spin:vartime).
//   - nobigsecret: math/big must never appear in the bls limb-arithmetic
//     hot-path files or the secret-scalar files (scalar.go,
//     scalarmul_ct.go, g2_ct.go).
//   - ctxfirst: exported service-interface methods take context.Context
//     as their first parameter (the PR 3 API contract).
//   - lockdiscipline: methods touching fields marked
//     //spin:guardedby <mutex> must lock the owning mutex first.
//   - testonly: a function or method that no non-test file of the
//     module or of bench/ references is dead production code; a test
//     hook that must stay in a non-test file says so with
//     //spin:testhook <reason>.
//
// Findings are suppressed — never silently, always with a recorded reason
// — by a `//spinlint:ignore <analyzer> <justification>` comment on the
// flagged line or the line directly above it. See docs/ANALYSIS.md for the
// annotation conventions and the suppression policy.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// All is the spinlint analyzer suite in reporting order.
var All = []*Analyzer{CTSecret, NoBigSecret, CtxFirst, LockDiscipline, TestOnly}

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //spinlint:ignore suppressions.
	Name string
	// Doc is the one-paragraph description shown by `spinlint -help`.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through the Pass.
	Run func(*Pass)
}

// A Pass provides one analyzer run with a single package plus the
// program-wide context (annotations span package boundaries).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diagnostics []Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a //spinlint:ignore suppression
// with a justification covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to every package of the program, except the
// reference-only ones, and returns all findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			if pkg.RefOnly {
				continue
			}
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg}
			a.Run(pass)
			out = append(out, pass.diagnostics...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// exportedName reports whether an identifier is exported.
func exportedName(name string) bool {
	return name != "" && name[0] >= 'A' && name[0] <= 'Z'
}

// filename returns the basename of the file containing pos.
func (p *Pass) filename(pos token.Pos) string {
	full := p.Prog.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}
