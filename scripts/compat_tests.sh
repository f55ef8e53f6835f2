#!/usr/bin/env bash
# compat_tests.sh — one step of the CI "wire-compat" job, runnable
# locally: run the named tests and fuzz seeds of one package verbosely.
#
#   ./scripts/compat_tests.sh ./internal/transport/ TestWireGolden TestSchemeByName
#
# `go test -run` passes when a pattern matches nothing, so each name must
# first start the name of at least one test that `go test -list`
# reports: a compat test that is renamed or deleted fails the job instead
# of silently dropping out of it.
set -euo pipefail
cd "$(dirname "$0")/.."

pkg=$1
shift
tests=$(go test -list . "$pkg")
for name in "$@"; do
    if ! grep -q "^$name" <<<"$tests"; then
        echo "compat_tests.sh: no test in $pkg starts with $name" >&2
        exit 1
    fi
done
pattern=$(IFS='|'; echo "$*")
go test -v -count=1 -run "^($pattern)" "$pkg"
