#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload solo-maxfps --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the Go
# tool's temporary and config files and the span files of traced runs all
# stay under .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

# The benchmark is its own module that imports the repository's packages
# through a replace directive, so the build fails (and no result is
# printed) when the repository sources are absent.
(cd "$here" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" --spans-dir "$out" "$@"
