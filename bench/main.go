// Command bench is the repo's benchmark (BENCHMARK.json describes it). It
// drives the system through its public functions only, on four named
// workloads chosen so that each group of layers does most of the work in
// one and almost none in another, and prints end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run.
//
//	bash bench/run.sh --workload recover_batched --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -all -seed 1 >> a.json     # the four workloads, merged
//	bash bench/run.sh -compare a.json b.json     # two sets of -all runs
//	bash bench/run.sh -sweep                     # mixed_tcp_wal at 2/4/6/8 ops/s
//
// README.md has the workload rationale, the layer→metric table and how to
// reproduce each number.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	workload := flag.String("workload", "", "one of "+fmt.Sprint(workloadOrder))
	seed := flag.Int64("seed", 1, "fixes arrival schedule, op mix, user names, PINs and messages")
	seconds := flag.Float64("seconds", 15, "length of the timed section")
	trace := flag.Int("trace", 0, "1: decorate the layer boundaries and print per-layer metrics")
	all := flag.Bool("all", false, "run the four workloads in child processes and merge their reports")
	sweep := flag.Bool("sweep", false, "mixed_tcp_wal at 2/4/6/8 ops/s: the highest rate that meets its limits")
	compare := flag.Bool("compare", false, "compare two files of -all reports: -compare a.json b.json")
	out := flag.String("out", "bench/out", "directory for trace.json and WAL scratch")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark's description (bounds for -compare)")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two files")
			break
		}
		err = compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	case *all:
		err = runAll(*seed, *seconds, *trace, *out)
	case *sweep:
		err = runSweep(*seed, *seconds, *out)
	default:
		err = runWorkload(*workload, *seed, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = fmt.Errorf("a correctness check failed; see first_error in the report")

// runWorkload runs one workload and prints its report, then, as the last
// line, the one-line result the benchmark contract asks for.
func runWorkload(name string, seed int64, seconds float64, trace bool, out string) error {
	cfg, err := defaultConfig(name)
	if err != nil {
		return err
	}
	cfg.seed, cfg.seconds, cfg.trace, cfg.outDir = seed, seconds, trace, out
	rep, err := runOne(context.Background(), cfg)
	if err != nil {
		return err
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", doc)
	for _, f := range rep.Findings {
		fmt.Fprintln(os.Stderr, "bench: finding:", f)
	}
	line, err := json.Marshal(rep.contractLine())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return rep.exitError()
}

// exitError makes a run whose outputs were wrong exit non-zero, after its
// report is printed.
func (r *report) exitError() error {
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

// contractLine is the last line of a run: end-to-end metrics when untraced,
// per-layer metrics when traced.
func (r *report) contractLine() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	list := r.EndToEnd
	if r.Traced {
		list = r.PerLayer
	}
	for _, m := range list {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// merged is what -all prints: one document per set member, which -compare
// reads back. Files may hold several, concatenated.
type merged struct {
	Host hostInfo  `json:"host"`
	Runs []*report `json:"runs"`
}

// runAll runs each workload in a fresh child process, so no workload
// inherits another's heap, and merges the children's reports.
func runAll(seed int64, seconds float64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var m merged
	failed := false
	for _, name := range workloadOrder {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if len(stdout) == 0 {
			return fmt.Errorf("%s: %w", name, err)
		}
		failed = failed || err != nil
		var rep report
		if err := json.NewDecoder(bytes.NewReader(stdout)).Decode(&rep); err != nil {
			return fmt.Errorf("%s: reading the child's report: %w", name, err)
		}
		m.Runs = append(m.Runs, &rep)
	}
	m.Host = m.Runs[0].Host
	doc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", doc)
	if failed {
		return errIncorrect
	}
	return nil
}

// runSweep offers mixed_tcp_wal's mix at each rate on a fresh fleet and
// prints the highest rate that still meets the latency limits: the number
// to look at when choosing the next performance item.
func runSweep(seed int64, seconds float64, out string) error {
	cfg, err := defaultConfig("mixed_tcp_wal")
	if err != nil {
		return err
	}
	ctx := context.Background()
	e := &env{ctx: ctx, name: cfg.workload, seed: seed, scratch: out}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	best := 0.0
	for _, rate := range []float64{2, 4, 6, 8} {
		st, err := setup(e, cfg.shape, nil, int(rate))
		if err != nil {
			return err
		}
		o, err := measureMixed(e, st, nil, seconds, rate)
		st.fl.close()
		if err != nil {
			return err
		}
		share := ratio(float64(o.within), float64(o.attempted))
		fmt.Printf("rate %g/s: offered %d, completed %.2f/s, within_limit_share %.3f, recover p50 %.0f ms, failed %d\n",
			rate, o.attempted, o.perS, share, o.lat["recover"].median(), o.failed)
		if share >= 0.9 {
			best = rate
		}
	}
	fmt.Printf("highest rate with within_limit_share >= 0.9: %g ops/s\n", best)
	return nil
}
