#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds occamy-e2e from source into
# .bench_build under the current directory (Go build cache, temporary files
# and the binary all live there, so nothing is written outside the checkout)
# and runs it with the arguments given.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
go build -C "$here" -o "$out/occamy-e2e" ./cmd/occamy-e2e
exec "$out/occamy-e2e" -tmp "$out/tmp" "$@"
