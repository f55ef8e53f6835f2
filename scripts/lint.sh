#!/usr/bin/env bash
# lint.sh — the CI "analysis" job body, runnable locally: gofmt drift,
# go vet, and the repo's own spinlint analyzer suite (internal/analysis):
#
#   ctsecret        //spin:secret taint → secret-dependent branches,
#                   indexing, comparisons, and variable-time calls
#   nobigsecret     math/big banned from the bls limb-arithmetic hot path
#   ctxfirst        context.Context comes first (PR 3 API contract)
#   lockdiscipline  //spin:guardedby mutex discipline
#   testonly        no non-test function or method that only tests use,
#                   unless marked //spin:testhook <reason>
#
# Findings fail the build. Suppressions require a justification:
# //spinlint:ignore <analyzer> <why>. See docs/ANALYSIS.md.
#
# govulncheck runs when installed (CI installs it; the offline dev
# container may not have it — the gate keeps local runs green).
#
# Run from the repository root: ./scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
drift="$(gofmt -l .)"
if [ -n "$drift" ]; then
    echo "gofmt drift:"
    echo "$drift"
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== spinlint (ctsecret, nobigsecret, ctxfirst, lockdiscipline, testonly)"
go run ./cmd/spinlint ./...

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck"
    govulncheck ./...
else
    echo "== govulncheck not installed; skipping (CI runs it)"
fi

echo "lint OK"
