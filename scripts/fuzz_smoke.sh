#!/usr/bin/env bash
# Run every native fuzz target as a short smoke (default 10s each):
# long enough for the engine to mutate past the seed corpus and catch
# shallow parser regressions and wake-logic faults of the cycle engine
# (FuzzEngineEquivalence), short enough for CI. Go runs one -fuzz
# pattern per invocation, so targets are looped explicitly.
#
# Usage: ./scripts/fuzz_smoke.sh [fuzztime]
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime="${1:-10s}"

run() { # run <package> <target>...
  local pkg="$1"
  shift
  for target in "$@"; do
    echo "=== fuzz $pkg $target ($fuzztime)"
    go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime"
  done
}

run ./internal/serving FuzzParseArrival FuzzParseSchedPolicy FuzzParsePreemptPolicy
run ./internal/cluster FuzzParseOverload FuzzParsePolicy FuzzParseFaults
run ./internal/telemetry FuzzCellPath
run ./cmd/cluster FuzzParseRates
run ./internal/sim FuzzEngineEquivalence
