package adversary

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// testConfig keeps the full sweep fast enough for -short CI while still
// exercising every scenario on both engines.
func testConfig(tb testing.TB) Config {
	cfg := Config{
		Guessers: 4,
		Seed:     1,
		DataDir:  tb.TempDir(),
		Duration: 2 * time.Second,
	}
	if testing.Short() {
		cfg.Duration = 500 * time.Millisecond
	}
	return cfg
}

// TestAdversarySweep is the harness's own acceptance test: every
// scenario on every engine, zero invariant violations, and the k+1-th
// guess demonstrably rejected in each one.
func TestAdversarySweep(t *testing.T) {
	cfg := testConfig(t)
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range report.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	wantScenarios := len(ScenarioNames()) * 2 // mem + wal
	if len(report.Scenarios) != wantScenarios {
		t.Fatalf("ran %d scenario instances, want %d", len(report.Scenarios), wantScenarios)
	}
	engines := make(map[string]bool)
	for _, s := range report.Scenarios {
		engines[s.Engine] = true
		if !s.KPlusOneRejected {
			t.Errorf("%s/%s: k+1-th guess was not rejected", s.Name, s.Engine)
		}
		if s.Guesses == 0 {
			t.Errorf("%s/%s: scenario issued no guesses", s.Name, s.Engine)
		}
	}
	if !engines["mem"] || !engines["wal"] {
		t.Fatalf("sweep did not cover both engines: %v", engines)
	}
	// Every named invariant must actually have been asserted — a sweep
	// that silently skipped a predicate is not a passing sweep.
	for _, inv := range []string{
		InvAttemptBounded, InvNoUnburn, InvKPlusOneRejected,
		InvPunctureIrreversible, InvStaleEviction, InvNoDoubleReplay,
		InvLogConsistent, InvHidesCluster, InvNoUnverifiedCommit,
		InvSignsHeaderHash,
	} {
		if report.Checked[inv] == 0 {
			t.Errorf("invariant %s was never asserted", inv)
		}
	}

	// The report artifact round-trips through its strict codec and
	// renders without tripping on its own data.
	blob, err := report.JSON()
	if err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	back, err := ParseReport(blob)
	if err != nil {
		t.Fatalf("report does not re-parse: %v", err)
	}
	if !back.OK() != !report.OK() {
		t.Fatal("round-trip changed the verdict")
	}
	var buf bytes.Buffer
	report.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("PASS")) && report.OK() {
		t.Fatalf("render of a passing report lacks PASS:\n%s", buf.String())
	}
}

// TestRunSingleScenario checks scenario selection and the uniform
// distribution path (no dictionary head at all).
func TestRunSingleScenario(t *testing.T) {
	cfg := testConfig(t)
	cfg.Dist = Uniform(6)
	cfg.Engines = []string{"mem"}
	cfg.Scenarios = []string{"resume-abuse"}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(report.Scenarios) != 1 || report.Scenarios[0].Name != "resume-abuse" {
		t.Fatalf("scenario selection ran %+v", report.Scenarios)
	}
	if !report.OK() {
		for _, v := range report.Violations {
			t.Errorf("violation: %s", v)
		}
	}
	if report.Scenarios[0].Resumes == 0 {
		t.Fatal("resume-abuse scenario issued no resumes")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := testConfig(t)
	cfg.Engines = []string{"floppy"}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run accepted an unknown engine")
	}
	cfg = testConfig(t)
	cfg.Scenarios = []string{"no-such-scenario"}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run accepted an unknown scenario")
	}
	cfg = testConfig(t)
	cfg.Dist = &Dist{Name: "hollow"}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run accepted an unsampleable distribution")
	}
}
