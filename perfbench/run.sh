#!/usr/bin/env bash
# Builds the benchmark and its reference, cmd/tables, from this checkout and
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep|graph-atomic|service-mix \
#       --seed N --seconds S --trace 0|1
#
# Binaries, the Go build cache and the benchmark's scratch files all stay
# under .bench_build in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/tables" ./cmd/tables
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tables "$out/tables" -outdir "$out" "$@"
