package main

import "strings"

// metric is one named number with its unit and the sample count behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// layerMetricUnits lists the per-layer metrics that come from the op
// timers, the decorators and the meters, in print order. A metric whose
// layer a workload does not exercise reads 0 there: no calls, no time.
var layerMetricUnits = [][2]string{
	{"client.recover_p50_ms", "ms"}, {"client.recover_p90_ms", "ms"},
	{"client.backup_p50_ms", "ms"}, {"client.backup_p99_ms", "ms"}, {"client.read_p50_ms", "ms"},
	{"client.begin_p50_ms", "ms"}, {"client.share_phase_p50_ms", "ms"}, {"client.share_phase_p90_ms", "ms"},
	{"client.self_ms_per_recover", "ms"}, {"client.self_ms_per_backup", "ms"}, {"client.gen_lag_max_ms", "ms"},
	{"client.ops_per_s", "1/s"}, {"client.cpu_ms_per_op", "ms"},

	{"provider.fetch_ciphertext_us", "us"}, {"provider.reserve_attempt_us", "us"}, {"provider.log_attempt_us", "us"},
	{"provider.wait_commit_ms", "ms"}, {"provider.inclusion_proof_us", "us"}, {"provider.relay_recover_ms", "ms"},
	{"provider.store_ciphertext_us", "us"}, {"provider.relay_calls_per_recover", "count"},
	{"provider.epochs", "count"}, {"provider.inserts_per_epoch", "count"}, {"provider.epoch_wall_ms", "ms"},
	{"provider.epoch_self_ms", "ms"}, {"provider.fanout_parallelism", "ratio"},

	{"hsm.choose_chunks_us", "us"}, {"hsm.handle_audit_ms", "ms"}, {"hsm.handle_commit_ms", "ms"},
	{"hsm.handle_recover_ms", "ms"}, {"hsm.busy_ms_per_epoch", "ms"}, {"hsm.busy_ms_per_recover", "ms"}, {"hsm.errors", "count"},
	{"hsm.miller_loops_per_epoch", "count"}, {"hsm.final_exps_per_epoch", "count"}, {"hsm.bls_signs_per_epoch", "count"},
	{"hsm.g2_adds_per_epoch", "count"}, {"hsm.ec_muls_per_recover", "count"}, {"hsm.elgamal_decrypts_per_recover", "count"},

	{"storage.appends_per_op", "count"}, {"storage.append_us", "us"}, {"storage.syncs_per_op", "count"},
	{"storage.sync_us", "us"}, {"storage.sync_p99_us", "us"}, {"storage.bytes_per_op", "B"}, {"storage.wal_bytes_per_epoch", "B"},

	{"transport.rtt_us", "us"}, {"transport.bytes_per_recover", "B"}, {"transport.bytes_per_backup", "B"},
	{"transport.bytes_per_epoch", "B"}, {"transport.recover_inproc_p50_ms", "ms"},

	{"trace.client_pct", "%"}, {"trace.provider_pct", "%"}, {"trace.hsm_pct", "%"}, {"trace.storage_pct", "%"},
	{"trace.residual_pct", "%"}, {"trace.overhead_pct", "%"}, {"trace.host_calib_ms", "ms"}, {"trace.ref_burst_ms", "ms"},
}

// perLayerUnits is every per-layer metric with its unit: the list above
// plus one per leaf probe.
func perLayerUnits() [][2]string {
	out := append([][2]string(nil), layerMetricUnits...)
	for _, p := range leafProbes() {
		out = append(out, [2]string{p.name, p.unit})
	}
	return out
}

// traced is everything the traced run adds to an outcome.
type traced struct {
	view    *traceView
	meters  map[string]int64 // HSM meter deltas over the timed section
	probes  map[string]samples
	refP50  float64 // untraced median of the primary op, from the reference section
	calibMS float64
}

// spanMS returns the durations, in ms, of every span with the given name.
func (v *traceView) spanMS(name string) samples {
	var out samples
	for _, s := range v.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

func scale(s samples, k float64) samples {
	out := make(samples, len(s))
	for i, v := range s {
		out[i] = v * k
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues computes every per-layer metric of one traced run.
func layerValues(name string, o *outcome, t *traced) map[string]metric {
	out := make(map[string]metric)
	put := func(name string, v float64, n int) { out[name] = metric{Name: name, Value: v, N: n} }
	med := func(name string, s samples) { put(name, s.median(), len(s)) }
	v := t.view

	rec, bak, read := o.lat["recover"], o.lat["backup"], o.lat["read"]
	med("client.recover_p50_ms", rec)
	put("client.recover_p90_ms", rec.tail(90), len(rec))
	med("client.backup_p50_ms", bak)
	put("client.backup_p99_ms", bak.tail(99), len(bak))
	med("client.read_p50_ms", read)
	med("client.begin_p50_ms", o.phase["begin_ms"])
	med("client.share_phase_p50_ms", o.phase["share_phase_ms"])
	put("client.share_phase_p90_ms", o.phase["share_phase_ms"].tail(90), len(o.phase["share_phase_ms"]))
	put("client.gen_lag_max_ms", o.phase["gen_lag_ms"].percentile(100), len(o.phase["gen_lag_ms"]))
	// The wall-clock forms of the end-to-end times (README.md, "Host speed").
	put("client.ops_per_s", o.perS, o.completed())
	put("client.cpu_ms_per_op", ratio(o.cpuMS, float64(o.completed())), o.completed())

	// Where each op kind's wall went.
	perKind := make(map[string]*breakdown)
	opCount := make(map[string]int)
	for i, s := range v.spans {
		if strings.HasPrefix(s.Name, "op.") && !s.Err {
			kind := strings.TrimPrefix(s.Name, "op.")
			if perKind[kind] == nil {
				perKind[kind] = &breakdown{}
			}
			perKind[kind].add(v.breakdownOf(i))
			opCount[kind]++
		}
	}
	for _, kind := range []string{"recover", "backup"} {
		if b := perKind[kind]; b != nil {
			put("client.self_ms_per_"+kind, ratio(float64(b.client)/1e6, float64(opCount[kind])), opCount[kind])
		}
	}
	if b := perKind[primaryOp[name]]; b != nil && b.wall > 0 {
		n := opCount[primaryOp[name]]
		pct := func(part int64) float64 { return 100 * float64(part) / float64(b.wall) }
		put("trace.client_pct", pct(b.client), n)
		put("trace.provider_pct", pct(b.provider), n)
		put("trace.hsm_pct", pct(b.hsm), n)
		put("trace.storage_pct", pct(b.storage), n)
		put("trace.residual_pct", b.residualPct(), n)
	}
	if p50 := o.lat[primaryOp[name]].median(); t.refP50 > 0 {
		put("trace.overhead_pct", 100*(p50-t.refP50)/t.refP50, len(o.lat[primaryOp[name]]))
	}
	put("trace.host_calib_ms", t.calibMS, 2)
	med("trace.ref_burst_ms", o.phase["ref_burst_ms"])

	med("provider.fetch_ciphertext_us", scale(v.spanMS("provider.fetch_ciphertext"), 1000))
	med("provider.reserve_attempt_us", scale(v.spanMS("provider.reserve_attempt"), 1000))
	med("provider.log_attempt_us", scale(v.spanMS("provider.log_attempt"), 1000))
	med("provider.wait_commit_ms", v.spanMS("provider.wait_commit"))
	med("provider.inclusion_proof_us", scale(v.spanMS("provider.inclusion_proof"), 1000))
	relays := v.spanMS("provider.relay_recover")
	med("provider.relay_recover_ms", relays)
	med("provider.store_ciphertext_us", scale(v.spanMS("provider.store_ciphertext"), 1000))
	recoveries := opCount["recover"]
	put("provider.relay_calls_per_recover", ratio(float64(len(relays)), float64(recoveries)), recoveries)

	// Per epoch: wall, the provider's own share of it, and how parallel
	// the HSM fan-out really ran.
	epochs := len(v.windows)
	var walls, selfs samples
	var busy, covered, epochBytes float64
	for _, w := range v.windows {
		win := v.spans[w]
		var below, hsms []interval
		for _, c := range v.children[win.ID] {
			cs := v.spans[c]
			below = append(below, cs.interval())
			if cs.layer() == "hsm" {
				hsms = append(hsms, cs.interval())
				busy += cs.ms()
			}
		}
		walls = append(walls, win.ms())
		selfs = append(selfs, float64(selfTime(win.interval(), below))/1e6)
		covered += float64(unionLen(hsms)) / 1e6
	}
	put("provider.epochs", float64(epochs), epochs)
	put("provider.inserts_per_epoch", ratio(float64(len(v.spanMS("provider.log_attempt"))), float64(epochs)), epochs)
	med("provider.epoch_wall_ms", walls)
	med("provider.epoch_self_ms", selfs)
	put("provider.fanout_parallelism", ratio(busy, covered), epochs)

	med("hsm.choose_chunks_us", scale(v.spanMS("hsm.choose_chunks"), 1000))
	med("hsm.handle_audit_ms", v.spanMS("hsm.handle_audit"))
	med("hsm.handle_commit_ms", v.spanMS("hsm.handle_commit"))
	handled := v.spanMS("hsm.handle_recover")
	med("hsm.handle_recover_ms", handled)
	put("hsm.busy_ms_per_epoch", ratio(busy, float64(epochs)), epochs)
	put("hsm.busy_ms_per_recover", ratio(handled.sum(), float64(recoveries)), recoveries)
	hsmErrs := 0
	var appends, syncs samples
	var appendBytes float64
	for _, s := range v.spans {
		switch {
		case s.layer() == "hsm" && s.Err:
			hsmErrs++
		case s.Name == "storage.sync":
			syncs = append(syncs, s.ms()*1000)
		case strings.HasPrefix(s.Name, "storage.append"):
			appends = append(appends, s.ms()*1000)
			appendBytes += float64(s.Bytes)
			if s.Name != "storage.append" { // log inserts and epoch commits
				epochBytes += float64(s.Bytes)
			}
		}
	}
	put("hsm.errors", float64(hsmErrs), hsmErrs)
	perEpoch := func(metricName, op string) {
		put(metricName, ratio(float64(t.meters[op]), float64(epochs)), epochs)
	}
	perEpoch("hsm.miller_loops_per_epoch", "miller_loop")
	perEpoch("hsm.final_exps_per_epoch", "final_exp")
	perEpoch("hsm.bls_signs_per_epoch", "bls_sign")
	perEpoch("hsm.g2_adds_per_epoch", "g2_add")
	put("hsm.ec_muls_per_recover", ratio(float64(t.meters["ec_mul"]), float64(recoveries)), recoveries)
	put("hsm.elgamal_decrypts_per_recover", ratio(float64(t.meters["elgamal_decrypt"]), float64(recoveries)), recoveries)

	ops := float64(o.completed())
	put("storage.appends_per_op", ratio(float64(len(appends)), ops), len(appends))
	med("storage.append_us", appends)
	put("storage.syncs_per_op", ratio(float64(len(syncs)), ops), len(syncs))
	med("storage.sync_us", syncs)
	put("storage.sync_p99_us", syncs.tail(99), len(syncs))
	put("storage.bytes_per_op", ratio(appendBytes, ops), len(appends))
	put("storage.wal_bytes_per_epoch", ratio(epochBytes, float64(epochs)), epochs)

	med("transport.rtt_us", o.phase["rtt_us"])
	for _, k := range []string{"bytes_per_recover", "bytes_per_backup", "bytes_per_epoch"} {
		put("transport."+k, o.phase[k].mean(), len(o.phase[k]))
	}
	med("transport.recover_inproc_p50_ms", o.phase["recover_inproc_ms"])

	for name, s := range t.probes {
		med(name, s)
	}
	return out
}
