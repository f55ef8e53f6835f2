package analysis

// analysistest_test.go is a miniature analysistest: each fixture directory
// under testdata/src is loaded as one package and run through one
// analyzer, and `// want` comments in the fixture assert the exact
// finding set. A want comment holds one or more backquoted (or
// double-quoted) regexps and asserts that a diagnostic matching each
// lands on that line; any diagnostic without a want, or want without a
// diagnostic, fails the test.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// LoadDir type-checks a single directory as one package outside any
// module — the analysistest fixture path. Fixture files may import only
// the standard library.
func LoadDir(dir string) (*Program, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var files []string
	for _, m := range matches {
		if !strings.HasSuffix(m, "_test.go") {
			files = append(files, filepath.Base(m))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	lp := listedPackage{
		ImportPath: "fixture/" + filepath.Base(dir),
		Dir:        dir,
		GoFiles:    files,
	}
	return typecheck([]listedPackage{lp})
}

// wantExpectation is one `// want` pattern at a file:line.
type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantPatternRE extracts the backquoted or double-quoted patterns of a
// want comment.
var wantPatternRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(t *testing.T, prog *Program) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					patterns := wantPatternRE.FindAllString(text, -1)
					if len(patterns) == 0 {
						t.Fatalf("%s: malformed want comment (no quoted pattern): %s", pos, c.Text)
					}
					for _, p := range patterns {
						var raw string
						if p[0] == '`' {
							raw = p[1 : len(p)-1]
						} else {
							var err error
							raw, err = strconv.Unquote(p)
							if err != nil {
								t.Fatalf("%s: bad want pattern %s: %v", pos, p, err)
							}
						}
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
						}
						wants = append(wants, &wantExpectation{
							file: pos.Filename,
							line: pos.Line,
							re:   re,
							raw:  raw,
						})
					}
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<name> and checks the analyzer's findings
// against the fixture's want comments.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	prog, err := LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	checkWants(t, prog, analyzers...)
}

// checkWants runs the analyzers over prog and matches their findings
// one-to-one against prog's want comments.
func checkWants(t *testing.T, prog *Program, analyzers ...*Analyzer) {
	t.Helper()
	wants := parseWants(t, prog)
	diags := Run(prog, analyzers)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

func TestCTSecretFixture(t *testing.T)       { runFixture(t, "ctsecret", CTSecret) }
func TestNoBigSecretFixture(t *testing.T)    { runFixture(t, "nobigsecret", NoBigSecret) }
func TestCtxFirstFixture(t *testing.T)       { runFixture(t, "ctxfirst", CtxFirst) }
func TestLockDisciplineFixture(t *testing.T) { runFixture(t, "lockdiscipline", LockDiscipline) }
func TestTestOnlyFixture(t *testing.T)       { runFixture(t, "testonly", TestOnly) }

// TestTestOnlyCountsNestedModuleReferences loads a module through the
// production loader: a call from the module nested under it (as bench/
// is under this one) keeps lib.UsedByBench alive, and nothing in the
// nested module is reported.
func TestTestOnlyCountsNestedModuleReferences(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src", "testonlymod"), "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	bench := prog.ByPath["example.com/lib/bench"]
	if bench == nil || !bench.RefOnly {
		t.Fatalf("nested module not loaded as reference-only: %+v", bench)
	}
	checkWants(t, prog, TestOnly)
}
