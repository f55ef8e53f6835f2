package main

import (
	"context"
	"math"
	"testing"
	"time"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: the statistics must sort
	}
	return s
}

func TestPercentileIsAnExactOrderStatistic(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := seq(4).median(); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := (samples{}).percentile(50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{20, 0, false},  // p75 leaves 5 beyond
		{40, 75, true},  // p75 leaves 10 beyond, p90 leaves 4
		{100, 90, true}, // p90 leaves 10, p95 leaves 5
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, v, ok := seq(c.n).highestPercentile()
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: highest percentile p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.wantP, c.ok)
		}
		if ok && v != seq(c.n).percentile(p) {
			t.Errorf("n=%d: value %g is not p%g", c.n, v, p)
		}
	}
	if got := seq(100).tail(99); got != 0 {
		t.Errorf("p99 of 100 samples has one sample beyond it and must be omitted, got %g", got)
	}
	if got := seq(100).tail(90); got != 90 {
		t.Errorf("p90 of 100 samples = %g, want 90", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	if got := seq(10).quartileSpread(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12.0, 16.5]
	if got := (samples{20, 10, 13, 11, 12}).quartileSpread(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("spread = %g, want (16.5-10.5)/12 = 0.5", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildrenNotTheirSum(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 50}, {30, 70}, {90, 120}, {200, 300}}
	// Covered: [10,70) and [90,100) = 70. The children's durations sum to
	// 210, which would make self time negative.
	if got := selfTime(parent, children); got != 30 {
		t.Errorf("self time = %d, want 30", got)
	}
	if got := unionLen([]interval{{5, 10}, {0, 3}, {2, 6}}); got != 10 {
		t.Errorf("union = %d, want 10", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("union of nothing = %d", got)
	}
}

// put records a finished span with explicit times.
func put(tr *tracer, s span) int64 {
	s.ID = tr.next.Add(1)
	tr.spans = append(tr.spans, s)
	return s.ID
}

func TestBreakdownAttributesEachInstantToTheDeepestLayer(t *testing.T) {
	tr := newTracer()
	op := put(tr, span{Name: "op.recover", Start: 0, End: 1000})
	tr.spans[0].Op = op
	put(tr, span{Name: "client.gate_wait", Parent: op, Op: op, Start: 600, End: 700})
	relay := put(tr, span{Name: "provider.relay_recover", Parent: op, Op: op, Start: 100, End: 600})
	// Two HSM calls in parallel under one provider call: covered 200..500.
	put(tr, span{Name: "hsm.handle_recover", Parent: relay, Op: op, Start: 200, End: 400})
	put(tr, span{Name: "hsm.handle_recover", Parent: relay, Op: op, Start: 300, End: 500})
	// A storage call with no context: containment puts it under the HSM span.
	put(tr, span{Name: "storage.append", Start: 320, End: 340})

	v := tr.link()
	var root int
	for i, s := range v.spans {
		if s.Name == "op.recover" {
			root = i
		}
	}
	b := v.breakdownOf(root)
	want := breakdown{wall: 900, client: 400, provider: 200, hsm: 280, storage: 20}
	if b != want {
		t.Errorf("breakdown = %+v, want %+v", b, want)
	}
	if b.residualPct() != 0 {
		t.Errorf("residual = %g, want 0: every instant has a layer", b.residualPct())
	}
}

func TestCommitWaitOutsideAnEpochIsResidual(t *testing.T) {
	tr := newTracer()
	op := put(tr, span{Name: "op.recover", Start: 0, End: 1000})
	tr.spans[0].Op = op
	put(tr, span{Name: "provider.wait_commit", Parent: op, Op: op, Start: 100, End: 900})
	// One inferred epoch, 400..800, with the audit and commit fan-outs.
	put(tr, span{Name: "hsm.choose_chunks", Start: 400, End: 410})
	put(tr, span{Name: "hsm.handle_audit", Start: 410, End: 600})
	put(tr, span{Name: "hsm.handle_commit", Start: 650, End: 800})
	// The next epoch belongs to someone else.
	put(tr, span{Name: "hsm.choose_chunks", Start: 2000, End: 2010})

	v := tr.link()
	if len(v.windows) != 2 {
		t.Fatalf("inferred %d epochs, want 2", len(v.windows))
	}
	var root int
	for i, s := range v.spans {
		if s.Name == "op.recover" {
			root = i
		}
	}
	b := v.breakdownOf(root)
	// hsm 10+190+150; provider = epoch 400..800 minus hsm; parked = the
	// commit wait outside the epoch, 100..400 and 800..900.
	want := breakdown{wall: 1000, client: 200, provider: 50, wait: 400, hsm: 350}
	if b != want {
		t.Errorf("breakdown = %+v, want %+v", b, want)
	}
	if got := b.residualPct(); got != 40 {
		t.Errorf("residual = %g%%, want 40%%", got)
	}
}

func TestContextCarriesParentAndOp(t *testing.T) {
	tr := newTracer()
	tr.enable(true)
	ctx, op := tr.begin(context.Background(), "op.backup")
	ctx2, call := tr.begin(ctx, "provider.store_ciphertext")
	_, inner := tr.begin(ctx2, "hsm.handle_recover")
	inner.end(nil)
	call.end(nil)
	tr.at(ctx, "client.begin", time.Now(), time.Now())
	op.end(nil)
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	root := byName["op.backup"]
	if root.Op != root.ID {
		t.Errorf("op root: op id %d, want its own id %d", root.Op, root.ID)
	}
	if c := byName["provider.store_ciphertext"]; c.Parent != root.ID || c.Op != root.ID {
		t.Errorf("provider span: parent %d op %d, want %d", c.Parent, c.Op, root.ID)
	}
	if h := byName["hsm.handle_recover"]; h.Parent != byName["provider.store_ciphertext"].ID || h.Op != root.ID {
		t.Errorf("hsm span: parent %d op %d", h.Parent, h.Op)
	}
	if c := byName["client.begin"]; c.Parent != root.ID {
		t.Errorf("phase span: parent %d, want %d", c.Parent, root.ID)
	}
	// Off: nothing recorded, nothing breaks.
	tr.enable(false)
	n := tr.count()
	_, off := tr.begin(context.Background(), "op.read")
	off.end(nil)
	if tr.count() != n {
		t.Errorf("a disabled tracer recorded a span")
	}
	var none *tracer
	_, nilSpan := none.begin(context.Background(), "op.read")
	nilSpan.end(nil)
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) samples { return samples{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, c := range []struct {
		name      string
		a, b      samples
		better    string
		hostMoved bool
		want      string
	}{
		{"inside the bound", steady(100), steady(105), "lower", false, "same"},
		{"slower beyond the bound", steady(100), steady(120), "lower", false, "worse"},
		{"faster beyond the bound", steady(100), steady(80), "lower", false, "better"},
		{"throughput fell", steady(100), steady(80), "higher", false, "worse"},
		{"host changed", steady(100), steady(120), "lower", true, "unresolved"},
		{"noisy and overlapping", samples{80, 100, 120, 140, 90}, samples{100, 125, 150, 175, 112}, "lower", false, "unresolved"},
		{"noisy but disjoint", samples{80, 100, 120, 140, 90}, samples{200, 250, 300, 350, 225}, "lower", false, "worse"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10, c.hostMoved); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestScheduleSpacesRecoveriesEvenly: every seed offers the same load in
// the same rhythm; only the order of backups and reads is the seed's.
func TestScheduleSpacesRecoveriesEvenly(t *testing.T) {
	sh := shapes["mixed_tcp_wal"]
	e := &env{seed: 7}
	plan := schedule(e.rng(4), sh, 4, 15)
	count := map[string]int{}
	for i, a := range plan {
		count[a.kind]++
		if (a.kind == "recover") != (i%2 == 0) {
			t.Errorf("slot %d is a %s; recoveries belong on every other slot, the first included", i, a.kind)
		}
		if want := time.Duration((float64(i) + 0.5) * 250 * float64(time.Millisecond)); a.due != want {
			t.Errorf("slot %d is due at %v, want %v", i, a.due, want)
		}
	}
	if len(plan) != 60 || count["recover"] != 30 || count["backup"] != 15 || count["read"] != 15 {
		t.Errorf("60 arrivals at 0.5/0.25/0.25 gave %d: %v", len(plan), count)
	}
	again := schedule(e.rng(4), sh, 4, 15)
	other := schedule((&env{seed: 8}).rng(4), sh, 4, 15)
	same := true
	for i := range plan {
		if plan[i] != again[i] {
			t.Fatalf("the same seed gave another schedule at slot %d", i)
		}
		same = same && plan[i] == other[i]
	}
	if same {
		t.Error("two seeds gave the same order of backups and reads")
	}
}
