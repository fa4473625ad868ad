#!/usr/bin/env bash
# Refresh the committed golden-metrics testdata files from the current
# engine output. Run this ONLY after an intentional metrics change —
# the golden suites exist to catch unintentional drift, and several of
# them pin bit-identity contracts (decode-only == pre-prefill engine,
# cache-off == pre-prefix fleet), so a refresh that changes values
# should be called out explicitly in review.
#
# Usage: ./scripts/update_goldens.sh
set -euo pipefail
cd "$(dirname "$0")/.."

go test ./internal/serving -run 'TestDecodeOnlyGoldenEquivalence' -update -count=1
go test ./internal/cluster -run 'TestClusterDecodeOnlyGolden' -update -count=1
go test ./cmd/llamcat -run 'TestExpAllGolden' -update -count=1
go test ./internal/telemetry -run 'TestWritePerfettoGolden|TestWriteJSONLGolden|TestWriteTimeseriesCSVGolden|TestWritePerfettoHWGolden|TestWriteJSONLHWGolden|TestWriteTimeseriesCSVHWGolden' -update -count=1

git --no-pager diff --stat -- '**/testdata/*.golden.*' || true
echo "goldens refreshed; inspect the diff above before committing"
