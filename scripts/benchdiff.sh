#!/bin/sh
# benchdiff.sh — the benchmark-regression gate: re-collect the tracked
# performance metrics and diff them against the newest committed
# BENCH_<n>.json, failing (exit 1) when any metric regresses past its
# tolerance (15% for deterministic metrics, 60% for wall-clock ones).
#
#   scripts/benchdiff.sh            # full comparison (all metrics)
#   scripts/benchdiff.sh -quick     # deterministic metrics only — safe
#                                   # on loaded/shared machines, used by
#                                   # scripts/check.sh
#
# Refresh the baseline after an intentional perf change with:
#   go run ./cmd/armci-bench -baseline
set -eu

cd "$(dirname "$0")/.."

quick=""
if [ "${1:-}" = "-quick" ]; then
    quick="-quick"
fi

# The newest baseline is the one with the largest numeric suffix: the
# glob sorts lexically, so BENCH_9.json would follow BENCH_10.json.
latest=""
newest=-1
for f in BENCH_*.json; do
    n=${f#BENCH_}
    n=${n%.json}
    case "$n" in
        '' | *[!0-9]*) continue ;;
    esac
    if [ "$n" -gt "$newest" ]; then
        newest=$n
        latest=$f
    fi
done
if [ -z "$latest" ]; then
    echo "benchdiff: no BENCH_*.json baseline committed; create one with: go run ./cmd/armci-bench -baseline" >&2
    exit 2
fi

exec go run ./cmd/armci-bench -compare "$latest" $quick
