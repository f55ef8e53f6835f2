package main

import (
	"context"
	"encoding/json"
	"regexp"
	"sort"
	"testing"
)

// toyConfig is a workload at a scale that runs in about a second: the same
// code paths as the production shape, on eight HSMs.
func toyConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	cfg, err := defaultConfig(workload)
	if err != nil {
		t.Fatal(err)
	}
	sh := cfg.shape
	sh.HSMs, sh.Cluster, sh.Threshold, sh.BFEM = 8, 4, 2, 256
	switch workload {
	case "recover_batched":
		sh.Users, sh.MaxBatch = 8, 8
	case "epoch_fleet":
		sh.DeadHSMs, sh.InsertsPerEpoch = 1, 8
	case "mixed_tcp_wal":
		sh.Users, sh.BFEM = 8, 64
	}
	cfg.shape, cfg.trace, cfg.outDir = sh, trace, t.TempDir()
	cfg.seconds, cfg.setups, cfg.probeCalls, cfg.controlRecs = 0.5, 1, 3, 2
	if workload == "mixed_tcp_wal" {
		cfg.seconds = 3
	}
	if trace {
		cfg.setups = 2 // the first fleet gives the untraced reference
	}
	return cfg
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEveryWorkload runs the four workloads at toy scale, with and
// without tracing, and holds what they emit against BENCHMARK.json in both
// directions: a metric the file names must be emitted, and nothing may be
// emitted that the file does not name.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
		if _, ok := shapes[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	if !equal(specWorkloads, workloadOrder) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", specWorkloads, workloadOrder)
	}
	units := make(map[string]string)
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, nameRE)
		}
		if _, dup := units[m.Name]; dup {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		units[m.Name] = m.Unit
	}

	for _, workload := range workloadOrder {
		for _, trace := range []bool{false, true} {
			rep, err := runOne(context.Background(), toyConfig(t, workload, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %s", workload, trace, rep.Correct, rep.Failed, rep.Attempted, rep.FirstError)
			}
			if rep.Checks < 1 {
				t.Errorf("%s trace=%v: no correctness check ran", workload, trace)
			}
			if got, want := names(rep.EndToEnd), specNames(spec.EndToEnd); !equal(got, want) {
				t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json %v", workload, got, want)
			}
			for _, m := range rep.EndToEnd {
				if m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", workload, m.Name)
				}
			}
			for _, m := range append(append([]metric(nil), rep.EndToEnd...), rep.PerLayer...) {
				if units[m.Name] != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, m.Name, m.Unit, units[m.Name])
				}
			}
			if trace {
				if got, want := names(rep.PerLayer), specNames(spec.PerLayer); !equal(got, want) {
					t.Errorf("%s: per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", workload, got, want)
				}
				if rep.TraceFile == "" {
					t.Errorf("%s: traced run wrote no trace file", workload)
				}
				checkLayersSumToWall(t, workload, rep)
			}
			// The last line must carry exactly the contract's keys, and the
			// metrics of the run's kind.
			var line map[string]json.RawMessage
			b, _ := json.Marshal(rep.contractLine())
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range line {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("result line has keys %v", keys)
			}
			var metrics map[string]json.RawMessage
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := len(spec.EndToEnd)
			if trace {
				want = len(spec.PerLayer)
			}
			if len(metrics) != want {
				t.Errorf("%s trace=%v: result line has %d metrics, want %d", workload, trace, len(metrics), want)
			}
		}
	}
}

// checkLayersSumToWall: the layers' shares and the residual account for all
// of the op wall, and on the two workloads whose every boundary is
// decorated in-process the HSM decorators saw the epochs.
func checkLayersSumToWall(t *testing.T, workload string, rep *report) {
	t.Helper()
	got := map[string]float64{}
	for _, m := range rep.PerLayer {
		got[m.Name] = m.Value
	}
	sum := got["trace.client_pct"] + got["trace.provider_pct"] + got["trace.hsm_pct"] + got["trace.storage_pct"] + got["trace.residual_pct"]
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("%s: layer shares and residual sum to %.2f%%, want 100%%", workload, sum)
	}
	if workload == "recover_batched" || workload == "epoch_fleet" {
		if got["trace.hsm_pct"] <= 0 || got["provider.epochs"] < 1 {
			t.Errorf("%s: hsm share %.1f%%, epochs %.0f: the HSM decorators saw nothing", workload, got["trace.hsm_pct"], got["provider.epochs"])
		}
	}
}

// TestCorruptedOutputFailsTheRun spoils one expected output per workload:
// the run must report it and the command must exit non-zero.
func TestCorruptedOutputFailsTheRun(t *testing.T) {
	for _, workload := range workloadOrder {
		cfg := toyConfig(t, workload, false)
		cfg.corrupt = true
		rep, err := runOne(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if rep.Correct || rep.Failed == 0 || rep.FirstError == "" {
			t.Errorf("%s: correct=%v failed=%d first_error=%q after a corrupted output", workload, rep.Correct, rep.Failed, rep.FirstError)
		}
		if rep.exitError() == nil {
			t.Errorf("%s: a run with a wrong output would exit 0", workload)
		}
	}
}
