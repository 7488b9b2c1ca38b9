#!/usr/bin/env bash
# Builds the harness from this checkout's sources and runs it with the given
# arguments. Everything it writes — Go's build cache and temporary files, the
# binary, the traced run's spans and dir: store — stays under .bench_build at
# the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/provio-perf" .) >&2
# The driver's checkouts are not git repositories; records made there say so.
commit="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/provio-perf" -tmp "$build" -commit "$commit" "$@"
