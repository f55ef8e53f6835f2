#!/usr/bin/env bash
# bench_guard.sh — the CI benchmark regression guard: runs the BLS
# scalar/pairing benchmark set plus the PR 7 additions (unrolled feMul,
# cached quorum-key derivation, open-loop load smoke) and the PR 10
# additions (constant-time G2 keygen comb, batch BFE/BLS keygen, fleet
# construction at 24 and 1024 HSMs), compares each ns/op against the
# checked-in baseline with a slack factor, and emits a BENCH_10.json
# perf-trajectory snapshot.
#
#  * Baseline: scripts/bench_baseline.txt — "<name> <ns/op>" lines,
#    recorded on the reference host. Update it deliberately when a PR
#    changes performance on purpose.
#  * Threshold: a benchmark fails the guard if it is more than
#    BENCH_GUARD_FACTOR× slower than baseline (default 4.0 — generous,
#    because CI runners are noisy and share cores; the guard exists to
#    catch order-of-magnitude regressions like an accidental fallback to
#    a naive path, not 10% drift).
#  * Ratio guards: beside the absolute check, two same-run ratios that no
#    runner's speed can move — G1MulSecret / G1MulGLV ≤ 3.0 (the
#    constant-time walk against GLV; ≈ 7–8 while its table build paid 15
#    inversions, ≈ 2–2.5 since) and VerifyPreparedKey / PairingCheck2 ≤
#    1.05 (a verification against a key with cached lines must not cost
#    more than a two-pair check that prepares both arguments; ≈ 0.97
#    with the cache — a HashToG1 in place of two preparations — ≈ 1.05–1.1
#    if the key's lines are rebuilt per call, ≈ 1.15 if the generator's
#    are too). Two more hold the share path to what its arithmetic costs:
#    bfe.BenchmarkEncrypt / (K × PointMul + BaseMul) ≤ 1.15 at the
#    benchmark's K = 8 (one nonce per share: ≈ 1.0; a nonce per box again:
#    ≈ 1.25) and bfe.BenchmarkDecryptAndPuncture / (securestore's one-pass
#    read-and-delete of 8 leaves + PointMul) ≤ 1.25 (≈ 0.9–1.0; a second
#    pass over the store, or the sk·G the KDF used to want, puts it past
#    1.3). Two hold the epoch's field work: FinalExp / FeMul ≤ 13500
#    (≈ 11,000–11,700 with the masked add/sub; ≈ 15,700–17,500 with a
#    branch on the borrow, which mispredicts on the tower's data) and
#    HashToG1RFC9380 / FeInv ≤ 6.0 (≈ 3.6–5.0 for the inversion-free map;
#    ≈ 7.3–8.0 with the four Fermat inversions of the affine map, each
#    adding ≈ 1). Both bounds sit between the two sides' extremes over 8
#    alternating runs on a shared 2-vCPU host.
#  * Output: BENCH_10.json (override with BENCH_JSON_OUT) holding the
#    measured ns/op, the previous trajectory point (BENCH_7.json,
#    embedded verbatim), and — unless BENCH_SKIP_OPENLOOP=1 — the
#    open-loop load sweep for the 24- and 96-HSM fleets with p50/p95/p99
#    and the measured saturation knee, plus — unless BENCH_SKIP_10K=1 —
#    a 10000-HSM construction + open-loop smoke (BLS scheme, small BFE
#    filter; several wall-clock minutes, the point is that it completes).
#
# Run from the repository root: ./scripts/bench_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FACTOR="${BENCH_GUARD_FACTOR:-4.0}"
OUT="${BENCH_JSON_OUT:-BENCH_10.json}"
BASELINE="scripts/bench_baseline.txt"
PREV="BENCH_7.json"

BLS_BENCHES='BenchmarkSign$|BenchmarkVerify$|BenchmarkVerifyPreparedKey$|BenchmarkPairing$|BenchmarkPairingCheck2$|BenchmarkPrepareG2$|BenchmarkG1MulGLV$|BenchmarkG1MulSecret$|BenchmarkG2MulPsi$|BenchmarkG1FromBytes$|BenchmarkG2FromBytes$|BenchmarkAggregatePublicKeys1024$|BenchmarkG2MultiExp$'
# Sub-microsecond field ops need a large fixed iteration count or the
# per-op numbers are timer-resolution noise; FeMul is the denominator of
# a ratio guard, so it keeps the minimum of three. The *Loop variants are
# the pre-unroll kernels, kept in the tests as differential oracles: their
# ratio to FeMul/FeSquare is the unrolling win itself.
FIELD_BENCHES='BenchmarkFeMul$|BenchmarkFeSquare$|BenchmarkFeMulLoop$|BenchmarkFeSquareLoop$'
# Masked kernels: the multiplier's constant-time tail (fp_ct.go, the
# secret-scalar path; its ratio to FeMul is the price of the masked
# select) and the one add/sub kernel every caller shares, timed on a ring
# of 64 inputs so a branch on the borrow could not hide behind the
# predictor.
CT_BENCHES='BenchmarkFeAdd$|BenchmarkFeSub$|BenchmarkFeMulCT$|BenchmarkFeSquareCT$'
# The numerators and the inversion of the epoch ratio guards.
EPOCH_BENCHES='BenchmarkFinalExp$|BenchmarkHashToG1RFC9380$|BenchmarkFeInv$'
AGG_BENCHES='BenchmarkBLSAggregateVerify16$'
# Cached quorum-key derivation vs the retained full-MSM path (n=1024,
# 8 missing signers — the ISSUE 7 acceptance shape).
QUORUM_BENCHES='BenchmarkQuorumKeyCached1024$|BenchmarkQuorumKeyFullMSM1024$'
# One short open-loop burst: catches harness hangs and setup blow-ups.
LOAD_BENCHES='BenchmarkOpenLoopSmoke$'
# PR 10: the constant-time G2 fixed-base comb (secret-scalar keygen) and
# the batch keygen paths it feeds — 64 BLS keypairs per op, one shared
# batch inversion; the BFE pair is 1024 P-256 keys per op, batch vs
# rejection-sampling loop.
KEYGEN_BENCHES='BenchmarkG2MulGenSecret$|BenchmarkKeyGenBatch$'
BFE_BENCHES='BenchmarkKeyGen1024$|BenchmarkKeyGenBatch1024$'
# Fleet construction end to end (batch keygen + provisioning pool +
# shared roster cache); the 1024-HSM point is the ISSUE 10 acceptance
# shape.
PROVISION_BENCHES='BenchmarkDeploymentConstruct24$|BenchmarkDeploymentConstruct1024$'
# The share path and the primitives its ratio guards divide it by. Only
# bfe's BenchmarkEncrypt runs here (elgamal has one of the same name).
SHARE_BENCHES='BenchmarkEncrypt$|BenchmarkDecryptAndPuncture$'
P256_BENCHES='BenchmarkBaseMul$|BenchmarkPointMul$'
STORE_BENCHES='BenchmarkReadDelete8Of16K$'

raw="$(mktemp)"
openloop_json="$(mktemp)"
tenk_json="$(mktemp)"
trap 'rm -f "$raw" "$openloop_json" "$tenk_json"' EXIT

echo "== running benchmark set"
# -count=3, minimum kept: the ratio guards divide two of these, and a
# single 20-iteration sample is too noisy on a shared runner.
go test -run=NONE -bench="$BLS_BENCHES" -benchtime=20x -count=3 ./internal/bls/ | tee -a "$raw"
go test -run=NONE -bench="$FIELD_BENCHES" -benchtime=200000x -count=3 ./internal/bls/ | tee -a "$raw"
go test -run=NONE -bench="$CT_BENCHES" -benchtime=200000x -count=1 ./internal/bls/ | tee -a "$raw"
go test -run=NONE -bench="$EPOCH_BENCHES" -benchtime=200x -count=3 ./internal/bls/ | tee -a "$raw"
go test -run=NONE -bench="$AGG_BENCHES" -benchtime=10x -count=1 ./internal/aggsig/ | tee -a "$raw"
go test -run=NONE -bench="$QUORUM_BENCHES" -benchtime=10x -count=1 ./internal/aggsig/ | tee -a "$raw"
go test -run=NONE -bench="$LOAD_BENCHES" -benchtime=1x -count=1 ./internal/experiments/ | tee -a "$raw"
go test -run=NONE -bench="$KEYGEN_BENCHES" -benchtime=20x -count=1 ./internal/bls/ | tee -a "$raw"
go test -run=NONE -bench="$BFE_BENCHES" -benchtime=3x -count=1 ./internal/bfe/ | tee -a "$raw"
go test -run=NONE -bench="$PROVISION_BENCHES" -benchtime=3x -count=1 . | tee -a "$raw"
go test -run=NONE -bench="$SHARE_BENCHES" -benchtime=300x -count=3 ./internal/bfe/ | tee -a "$raw"
go test -run=NONE -bench="$P256_BENCHES" -benchtime=300x -count=3 ./internal/ecgroup/ | tee -a "$raw"
go test -run=NONE -bench="$STORE_BENCHES" -benchtime=300x -count=3 ./internal/securestore/ | tee -a "$raw"

# Parse "BenchmarkName(-N)  iters  12345 ns/op" lines into "name ns" pairs,
# keeping the minimum where a benchmark ran more than once.
measured="$(awk '/^Benchmark/ && /ns\/op/ {
	name = $1; sub(/-[0-9]+$/, "", name);
	if (!(name in best)) { order[++n] = name; best[name] = $3 }
	else if ($3 + 0 < best[name] + 0) best[name] = $3
}
END { for (i = 1; i <= n; i++) printf "%s %s\n", order[i], best[order[i]] }' "$raw")"

if [ -z "$measured" ]; then
	echo "bench_guard: no benchmark output parsed" >&2
	exit 1
fi

echo "== regression check (factor ${FACTOR}x vs ${BASELINE})"
fail=0
while read -r name ns; do
	base="$(awk -v n="$name" '$1 == n { print $2 }' "$BASELINE")"
	if [ -z "$base" ]; then
		echo "  (no baseline) $name: $ns ns/op"
		continue
	fi
	ok="$(awk -v ns="$ns" -v base="$base" -v f="$FACTOR" \
		'BEGIN { print (ns <= base * f) ? "ok" : "FAIL" }')"
	ratio="$(awk -v ns="$ns" -v base="$base" 'BEGIN { printf "%.2f", ns / base }')"
	echo "  $ok $name: $ns ns/op (baseline $base, ${ratio}x)"
	if [ "$ok" = "FAIL" ]; then
		fail=1
	fi
done <<<"$measured"

echo "== ratio guards (same run, host-independent)"
# Each line: numerator, maximum, then the terms the denominator sums, each
# a benchmark name with an optional "<count>*" in front.
while read -r num max den; do
	ratio="$(awk -v n="$num" -v terms="$den" '{ ns[$1] = $2 }
		END {
			k = split(terms, t, " ")
			for (i = 1; i <= k; i++) {
				c = 1; name = t[i]
				if (split(t[i], p, "*") == 2) { c = p[1]; name = p[2] }
				if (!(name in ns)) exit
				sum += c * ns[name]
			}
			if ((n in ns) && sum > 0) printf "%.2f", ns[n] / sum
		}' <<<"$measured")"
	if [ -z "$ratio" ]; then
		echo "  FAIL $num / ($den): benchmark missing from this run"
		fail=1
		continue
	fi
	ok="$(awk -v r="$ratio" -v m="$max" 'BEGIN { print (r <= m) ? "ok" : "FAIL" }')"
	echo "  $ok $num / ($den) = $ratio (max $max)"
	if [ "$ok" = "FAIL" ]; then
		fail=1
	fi
done <<'RATIOS'
BenchmarkG1MulSecret 3.0 BenchmarkG1MulGLV
BenchmarkVerifyPreparedKey 1.05 BenchmarkPairingCheck2
BenchmarkEncrypt 1.15 8*BenchmarkPointMul BenchmarkBaseMul
BenchmarkDecryptAndPuncture 1.25 BenchmarkReadDelete8Of16K BenchmarkPointMul
BenchmarkFinalExp 13500 BenchmarkFeMul
BenchmarkHashToG1RFC9380 6.0 BenchmarkFeInv
RATIOS

# Open-loop load sweep: 24- and 96-HSM fleets, Poisson arrivals, the
# p50/p95/p99 + saturation snapshot BENCH_7.json records. Skippable
# because it costs a few wall-clock minutes.
openloop_ran=0
if [ "${BENCH_SKIP_OPENLOOP:-0}" != 1 ]; then
	echo "== open-loop load sweep (24/96-HSM fleets; BENCH_SKIP_OPENLOOP=1 to skip)"
	go run ./cmd/experiments -only load \
		-duration "${BENCH_OPENLOOP_DURATION:-1500ms}" -out "$openloop_json"
	openloop_ran=1
fi

# 10000-HSM smoke: the fleet the paper sketches for datacenter scale must
# actually construct (batch keygen + provisioning pool) and serve a short
# open-loop burst. BLS scheme (O(1) per-HSM audit verification via the
# shared roster cache) and a deliberately small BFE filter — otherwise
# construction alone is N×16384 P-256 multiplications. The report records
# construct_seconds alongside the burst's completion rate.
tenk_ran=0
if [ "${BENCH_SKIP_10K:-0}" != 1 ]; then
	echo "== 10000-HSM construction + open-loop smoke (BENCH_SKIP_10K=1 to skip)"
	go run ./cmd/experiments -only load -fleet 10000 -scheme bls \
		-bfe-m 64 -bfe-k 4 -users 4 \
		-rate "${BENCH_10K_RATE:-2}" -duration "${BENCH_10K_DURATION:-1s}" \
		-out "$tenk_json"
	tenk_ran=1
fi

echo "== writing $OUT"
{
	echo '{'
	echo '  "schema": "safetypin-bench-trajectory",'
	echo '  "pr": 10,'
	echo "  \"guard_factor\": ${FACTOR},"
	echo '  "unit": "ns/op",'
	echo '  "benchmarks": {'
	first=1
	while read -r name ns; do
		if [ "$first" = 0 ]; then
			echo ','
		fi
		first=0
		printf '    "%s": %s' "$name" "$ns"
	done <<<"$measured"
	echo
	echo '  },'
	if [ "$openloop_ran" = 1 ]; then
		echo '  "open_loop":'
		sed 's/^/  /' "$openloop_json"
		echo '  ,'
	fi
	if [ "$tenk_ran" = 1 ]; then
		echo '  "smoke_10k":'
		sed 's/^/  /' "$tenk_json"
		echo '  ,'
	fi
	if [ -f "$PREV" ]; then
		echo '  "previous":'
		sed 's/^/  /' "$PREV"
	else
		echo '  "previous": null'
	fi
	echo '}'
} >"$OUT"

if [ "$fail" = 1 ]; then
	echo "bench_guard: regression threshold exceeded" >&2
	exit 1
fi
echo "bench_guard: all benchmarks within ${FACTOR}x of baseline"
