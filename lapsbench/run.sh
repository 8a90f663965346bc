#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Everything
# the build writes, the Go build cache included, stays under
# .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if ! (cd lapsbench && go build -o "$build/lapsbench" .) >&2; then
	echo "lapsbench: build failed" >&2
	exit 3
fi
if commit="$(git rev-parse --short=12 HEAD 2>/dev/null)"; then
	:
else
	# Not a git checkout: identify the tree by a digest of its Go sources.
	commit="tree-$(find . -path ./.bench_build -prune -o -name '*.go' -print | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi
export LAPSBENCH_COMMIT="$commit"
exec "$build/lapsbench" "$@"
