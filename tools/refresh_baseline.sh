#!/usr/bin/env sh
# Rebuild the checked-in CI perf baseline (bench/baseline/campaign_wallclock.json).
#
# Runs the campaign_wallclock bench best-of-N and keeps the run with the
# fastest serial campaign, so a one-off scheduler hiccup never becomes the
# number every future PR is compared against. The bench JSON is already
# self-describing — git describe and hostname are embedded by the bench
# itself — so the kept run IS the provenance record.
#
# Usage: refresh_baseline.sh <campaign_wallclock-binary> <output.json> [reps]
#
# Also available as the `refresh_baseline` CMake target, which wires in the
# built bench and the source-tree baseline path:
#
#   cmake --build build --target refresh_baseline
#
# Thread counts {1, 2} match the checked-in baseline (CI runners are
# 1-2 cores; wider sweeps just add noise rows the gate ignores).
set -eu

BENCH=${1:?usage: refresh_baseline.sh <campaign_wallclock-binary> <output.json> [reps]}
OUT=${2:?usage: refresh_baseline.sh <campaign_wallclock-binary> <output.json> [reps]}
REPS=${3:-3}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Serial campaign seconds of one bench JSON — the selection key. Gated
# phases are already best-of-3 inside the bench; the serial sweep row is
# the one quantity a single rerun can still rescue.
serial_seconds() {
    sed -n 's/.*"threads": 1, "seconds": \([0-9.e+-]*\),.*/\1/p' "$1" | head -n 1
}

best=""
best_secs=""
i=1
while [ "$i" -le "$REPS" ]; do
    echo "refresh_baseline: rep $i/$REPS" >&2
    "$BENCH" "$workdir/rep$i.json" 1 2 >&2
    secs=$(serial_seconds "$workdir/rep$i.json")
    if [ -z "$secs" ]; then
        echo "refresh_baseline: rep $i produced no serial run row" >&2
        exit 1
    fi
    echo "refresh_baseline: rep $i serial campaign ${secs}s" >&2
    if [ -z "$best" ] || awk "BEGIN{exit !($secs < $best_secs)}"; then
        best="$workdir/rep$i.json"
        best_secs="$secs"
    fi
    i=$((i + 1))
done

mkdir -p "$(dirname "$OUT")"
cp "$best" "$OUT"
echo "refresh_baseline: kept rep with serial campaign ${best_secs}s -> $OUT" >&2
grep -E '"(version|hostname)"' "$OUT" >&2 || true
