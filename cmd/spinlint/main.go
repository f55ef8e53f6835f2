// Command spinlint is the repo's static-analysis driver: a multichecker
// over the internal/analysis suite (ctsecret, nobigsecret, ctxfirst,
// lockdiscipline, testonly). It loads the module-local packages matched
// by its arguments (default ./...), runs every analyzer, prints findings
// as file:line:col: analyzer: message, and exits 1 if any finding
// survives the //spinlint:ignore suppressions. CI runs `go run ./cmd/spinlint
// ./...` in the analysis job (scripts/lint.sh locally).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"safetypin/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: spinlint [-list] [-only names] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the SafetyPin analyzer suite over the given package patterns\n")
		fmt.Fprintf(os.Stderr, "(default ./...). Exits 1 on findings.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analysis.All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "spinlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spinlint: %v\n", err)
		os.Exit(2)
	}
	prog, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spinlint: %v\n", err)
		os.Exit(2)
	}

	diags := analysis.Run(prog, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "spinlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
