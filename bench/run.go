package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // trace.json and WAL scratch go here, inside the checkout

	// Fixed for real runs; the smoke test shrinks them.
	shape       shape
	setups      int // set-ups per run; setup_s is their median
	probeCalls  int // timed calls per leaf probe
	controlRecs int // in-process control recoveries (mixed_tcp_wal, traced)
	corrupt     bool
}

func defaultConfig(workload string) (runConfig, error) {
	sh, ok := shapes[workload]
	if !ok {
		return runConfig{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadOrder)
	}
	return runConfig{workload: workload, seed: 1, seconds: 15, outDir: "bench/out",
		shape: sh, setups: 3, probeCalls: 200, controlRecs: 30}, nil
}

// report is the JSON document one run prints: host, the full parameter
// set, and every metric as {name, unit, value, n}.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Host      hostInfo `json:"host"`
	Params    shape    `json:"params"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    int      `json:"checks"`
	// FailedShare is failed+refused over attempted, wrong outputs included.
	FailedShare float64  `json:"failed_share"`
	FirstError  string   `json:"first_error,omitempty"`
	EndToEnd    []metric `json:"end_to_end"`
	// Detail holds numbers that explain the end-to-end ones but are not
	// gated: the tail the sample count supports, per-kind latencies.
	Detail    []metric `json:"detail,omitempty"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
	Findings  []string `json:"findings,omitempty"`
}

// runOne sets the workload up cfg.setups times, measures it once, and in a
// traced run also measures an untraced reference section, the leaf probes
// and, for mixed_tcp_wal, the wire extras.
func runOne(ctx context.Context, cfg runConfig) (*report, error) {
	host := readHost()
	host.CalibStart = hostCalib()
	scratch := filepath.Join(cfg.outDir, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	e := &env{ctx: ctx, name: cfg.workload, seed: cfg.seed, scratch: scratch, corrupt: cfg.corrupt}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var (
		setupS samples
		st     *state
		refP50 float64
	)
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		var use *tracer
		if last {
			use = tr
		}
		start := time.Now()
		s, err := setup(e, cfg.shape, use, i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		switch {
		case last:
			st = s
		case cfg.trace && i == cfg.setups-2:
			// The second-to-last fleet, otherwise discarded, gives the
			// untraced reference for trace.overhead_pct.
			plain := *e
			plain.corrupt = false
			ref, err := measure(&plain, s, nil, cfg.seconds/3)
			s.fl.close()
			if err != nil {
				return nil, fmt.Errorf("reference section: %w", err)
			}
			refP50 = ref.lat[primaryOp[cfg.workload]].median()
		default:
			s.fl.close()
		}
	}
	defer st.fl.close()

	meters0 := st.fl.meterCounts()
	tr.enable(true)
	o, err := measure(e, st, tr, cfg.seconds)
	tr.enable(false)
	if err != nil {
		return nil, fmt.Errorf("timed section: %w", err)
	}

	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.trace, Params: cfg.shape,
		Correct:   o.wrong == 0 && o.checks > 0,
		Attempted: o.attempted, Failed: o.failed, Checks: o.checks,
		FailedShare: ratio(float64(o.failed), float64(o.attempted)),
	}
	if o.firstErr != nil {
		rep.FirstError = o.firstErr.Error()
	}

	var t *traced
	if cfg.trace {
		t = &traced{meters: st.fl.meterCounts(), refP50: refP50, probes: map[string]samples{}}
		for op, n := range meters0 {
			t.meters[op] -= n
		}
		// Link before the extras below record spans of their own.
		t.view = tr.link()
		if cfg.workload == "mixed_tcp_wal" {
			if err := mixedExtras(e, cfg, st, tr, o); err != nil {
				return nil, fmt.Errorf("wire extras: %w", err)
			}
		}
		for _, p := range leafProbes() {
			if p.workload != cfg.workload {
				continue
			}
			s, err := runProbe(p, cfg.probeCalls, scratch)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			t.probes[p.name] = s
		}
		rep.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := writeSpans(rep.TraceFile, t.view.spans); err != nil {
			return nil, err
		}
	}

	host.CalibEnd = hostCalib()
	host.HostCalibMS = (host.CalibStart + host.CalibEnd) / 2
	rep.Host = host

	// Times are in reference milliseconds: wall or CPU milliseconds divided
	// by how much slower than refMS the bursts beside the ops ran.
	prim, bursts := o.lat[primaryOp[cfg.workload]], o.phase["ref_burst_ms"]
	slowdown := bursts.median() / refMS
	cpuPerOp := ratio(o.cpuMS, float64(o.completed()))
	rep.EndToEnd = []metric{
		{"setup_s", "s", setupS.median(), len(setupS)},
		{"op_p50_ref_ms", "ms", prim.median() / slowdown, len(prim)},
		{"cpu_ref_ms_per_op", "ms", cpuPerOp / slowdown, o.completed()},
		{"within_limit_share", "ratio", ratio(float64(o.within), float64(o.attempted)), o.attempted},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
	}
	rep.Detail = []metric{
		{"ref_burst_ms", "ms", bursts.median(), len(bursts)},
		{"ops_per_s", "1/s", o.perS, o.completed()},
		{"cpu_ms_per_op", "ms", cpuPerOp, o.completed()},
	}
	for _, kind := range []string{"recover", "epoch", "backup", "read"} {
		s := o.lat[kind]
		if len(s) == 0 {
			continue
		}
		rep.Detail = append(rep.Detail, metric{kind + "_p50_ms", "ms", s.median(), len(s)})
		if p, v, ok := s.highestPercentile(); ok {
			rep.Detail = append(rep.Detail, metric{fmt.Sprintf("%s_p%g_ms", kind, p), "ms", v, len(s)})
		}
	}
	if r := o.phase["round_ms"]; len(r) > 0 {
		rep.Detail = append(rep.Detail, metric{"round_p50_ms", "ms", r.median(), len(r)})
	}
	if v, ok := o.counts["wal_bytes_per_backup"]; ok {
		rep.Detail = append(rep.Detail, metric{"wal_bytes_per_backup", "B", v, len(o.lat["backup"])})
	}
	if v, ok := o.counts["offered_per_s"]; ok {
		rep.Detail = append(rep.Detail, metric{"offered_per_s", "1/s", v, o.attempted})
	}

	if cfg.trace {
		t.calibMS = host.HostCalibMS
		values := layerValues(cfg.workload, o, t)
		for _, nu := range perLayerUnits() {
			m := values[nu[0]] // zero value: the layer did nothing on this workload
			m.Name, m.Unit = nu[0], nu[1]
			rep.PerLayer = append(rep.PerLayer, m)
		}
		if r := values["trace.residual_pct"].Value; r > 10 {
			rep.Findings = append(rep.Findings, fmt.Sprintf("trace.residual_pct = %.1f%%: more than a tenth of op wall is parked in the scheduler with no layer working for the op", r))
		}
	}
	return rep, nil
}

// runProbe times calls+warm calls of one leaf probe and keeps the last
// calls of them, in the probe's unit.
func runProbe(p probe, calls int, scratch string) (samples, error) {
	warm := calls / 20
	if warm < 1 {
		warm = 1
	}
	call, cleanup, err := p.build(calls+warm, scratch)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	perUnit := 1e3 // ns → us
	if p.unit == "ms" {
		perUnit = 1e6
	}
	out := make(samples, 0, calls)
	for i := 0; i < calls+warm; i++ {
		start := time.Now()
		if err := call(i); err != nil {
			return nil, err
		}
		if d := time.Since(start); i >= warm {
			out = append(out, float64(d)/perUnit)
		}
	}
	return out, nil
}

// mixedExtras measures what only the traced mixed_tcp_wal run can: the idle
// round trip, bytes on the wire per lone op (nothing else in flight, so
// the relay counters are the op's own), and the same recovery on an
// in-process fleet of the same shape, so that recover_p50_ms minus
// recover_inproc_p50_ms is what wire, remote key blocks and fsync cost.
func mixedExtras(e *env, cfg runConfig, st *state, tr *tracer, o *outcome) error {
	fl, sh := st.fl, st.fl.sh
	for i := 0; i < cfg.probeCalls; i++ {
		start := time.Now()
		if err := fl.readAttemptCount(e.ctx, st.users[0].name()); err != nil {
			return err
		}
		o.sample("rtt_us", float64(time.Since(start))/1e3)
	}

	lone := cfg.controlRecs / 6
	if lone < 1 {
		lone = 1
	}
	r := e.rng(5)
	tr.enable(true)
	for i := 0; i < lone; i++ {
		u, msg := st.users[i%len(st.users)], seededBytes(r, sh.MsgBytes)
		b0 := fl.wireBytes()
		if err := u.backup(e.ctx, msg); err != nil {
			return err
		}
		o.sample("bytes_per_backup", float64(fl.wireBytes()-b0))

		b0 = fl.wireBytes()
		mark := tr.count()
		if _, _, err := recoverOnce(e.ctx, tr, newOutcome(), u, msg, nil); err != nil {
			return err
		}
		total := float64(fl.wireBytes() - b0)
		// The epoch this recovery waited on ran inside its commit wait;
		// the wait's own request and reply are a few dozen bytes.
		epoch := float64(tr.bytesSince(mark, "provider.wait_commit"))
		o.sample("bytes_per_epoch", epoch)
		o.sample("bytes_per_recover", total-epoch)
	}
	tr.enable(false)

	control := sh
	control.Transport, control.Storage, control.Users = "inproc", "none", 0
	cs, err := setup(e, control, nil, 99)
	if err != nil {
		return err
	}
	defer cs.fl.close()
	for i := 0; i < cfg.controlRecs; i++ {
		u, err := cs.fl.newUser(fmt.Sprintf("control-%d-%d", e.seed, i), seededPIN(r))
		if err != nil {
			return err
		}
		msg := seededBytes(r, sh.MsgBytes)
		if err := u.backup(e.ctx, msg); err != nil {
			return err
		}
		start := time.Now()
		if _, _, err := recoverOnce(e.ctx, nil, newOutcome(), u, msg, nil); err != nil {
			return err
		}
		o.sample("recover_inproc_ms", ms(time.Since(start)))
	}
	return nil
}
