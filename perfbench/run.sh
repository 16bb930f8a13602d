#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sa-serial --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# span files of traced runs all go under .bench_build/ there; nothing is
# read or written outside the repository except the Go toolchain itself.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)

# Stamp the commit when the checkout is a git work tree of its own.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -commit "$commit" "$@"
