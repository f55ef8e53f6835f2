// Command experiments regenerates every table and figure of the SafetyPin
// paper's evaluation section (§9) from this repository's implementation.
//
// Usage:
//
//	experiments                 # run everything at default scale
//	experiments -only fig9      # one experiment (table2, table7, fig8,
//	                            # fig9, fig10, fig11, fig12, fig13,
//	                            # table14, bandwidth)
//	experiments -quick          # reduced sizes (seconds instead of minutes)
//	experiments -only adversary -pin-dist skewed -duration 2s -out adv.json
//	                            # adversarial PIN-guessing sweep: every
//	                            # attack scenario on both storage engines,
//	                            # security invariants machine-checked,
//	                            # JSON report to adv.json; exits nonzero
//	                            # on any invariant violation
//
// Times reported as "SoloKey time" are computed by metering every primitive
// operation the real implementation performs and pricing the counts with
// the paper's Table 2/7 rates; see internal/simtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"safetypin/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment by name")
	quick := flag.Bool("quick", false, "reduced problem sizes")
	rate := flag.Float64("rate", 0, "adversary: guesses/sec per guesser (0 → closed loop)")
	duration := flag.Duration("duration", 0, "adversary: how long each scenario hammers its target (0 → 3s, 500ms with -quick)")
	outPath := flag.String("out", "", "adversary: write the machine-readable report as JSON to this file")
	pinDist := flag.String("pin-dist", "", "adversary: PIN distribution — skewed (default), uniform, uniform4, or a JSON file path")
	flag.Parse()

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	ran := false
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}

	if want("table2") {
		ran = true
		fmt.Println(experiments.Table2())
	}
	if want("table7") {
		ran = true
		fmt.Println(experiments.Table7(experiments.MeasureHostRates()))
	}
	if want("fig8") {
		ran = true
		cfg := experiments.DefaultFig8Config()
		if *quick {
			cfg.BaseLogSize = 1 << 13
			cfg.Inserts = 2048
			cfg.Lambda = 32
			cfg.Sizes = []int{512, 1024, 2048}
		}
		points, err := experiments.Fig8(cfg)
		if err != nil {
			fail("fig8", err)
		}
		fmt.Println(experiments.RenderFig8(points, cfg))
	}
	if want("fig9") {
		ran = true
		budgets := []int{10, 100, 1000, 10000, 100000}
		if *quick {
			budgets = []int{10, 100, 1000}
		}
		points, err := experiments.Fig9(budgets)
		if err != nil {
			fail("fig9", err)
		}
		fmt.Println(experiments.RenderFig9(points))
	}

	// Figures 10–13 and Table 14 share one recovery measurement.
	needLoad := want("fig10") || want("fig11") || want("fig12") || want("fig13") || want("table14")
	if needLoad {
		ran = true
		cfg := experiments.DefaultMeasureConfig()
		if *quick {
			cfg.NumHSMs = 32
			cfg.ClusterSize = 16
		}
		rep, err := experiments.Fig10(cfg)
		if err != nil {
			fail("fig10", err)
		}
		if want("fig10") {
			fmt.Println(rep.Render())
		}
		load := rep.SafetyPin.Load()
		if want("fig11") {
			sizes := []int{40, 50, 60, 70, 80, 90, 100}
			if *quick {
				sizes = []int{16, 24, 32}
			}
			points, err := experiments.Fig11(cfg, sizes)
			if err != nil {
				fail("fig11", err)
			}
			fmt.Println(experiments.RenderFig11(points))
		}
		if want("fig12") {
			fmt.Println(experiments.RenderFig12(experiments.Fig12(load, 5e6, 10)))
		}
		if want("fig13") {
			fmt.Println(experiments.RenderFig13(experiments.Fig13(load, 1.5e9, 6)))
		}
		if want("table14") {
			fmt.Println(experiments.Table14(load))
			fmt.Printf("rotation duty fraction (§9.1): %.0f%% of cycles; %.1f recoveries/HSM/hour\n\n",
				load.RotationDutyFraction()*100, load.RecoveriesPerHSMHour())
		}
	}
	if want("bandwidth") {
		ran = true
		fmt.Println(experiments.BandwidthReport(
			experiments.PaperN, experiments.PaperClusterSize,
			experiments.PaperBFEParams, experiments.PaperBFEParams.MaxPunctures()))
	}
	if want("adversary") && *only != "" {
		// Security sweep, not a performance figure: only runs when asked
		// for by name, so `experiments` alone still means "regenerate the
		// paper's evaluation".
		ran = true
		report, err := experiments.Adversary(context.Background(), experiments.AdversaryConfig{
			Dist:     *pinDist,
			Rate:     *rate,
			Duration: *duration,
			Quick:    *quick,
		})
		if err != nil {
			fail("adversary", err)
		}
		report.Render(os.Stdout)
		if *outPath != "" {
			blob, err := report.JSON()
			if err != nil {
				fail("adversary", err)
			}
			if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
				fail("adversary", err)
			}
			fmt.Printf("adversary report written to %s\n", *outPath)
		}
		if !report.OK() {
			fmt.Fprintln(os.Stderr, "adversary: invariant violations detected")
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
