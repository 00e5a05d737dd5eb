#!/bin/sh
# Run the end-to-end microbenchmark suite (bench_micro_sim plus the
# worker-reuse gate bench_campaign_setup) and write the merged
# machine-readable results to BENCH_micro.json at the repo root. This is
# the number the performance work is held to: simulated instructions per
# second at 1/2/4/8 contexts (see docs/PERFORMANCE.md for how to read it).
#
# Usage: tools/bench.sh [build-dir]      (default: <repo>/build-release,
#                                         falling back to <repo>/build)
#
# Environment:
#   SMTAVF_BENCH_MIN_TIME     seconds per measurement   (default 4)
#   SMTAVF_BENCH_REPETITIONS  repetitions per benchmark (default 3)

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${SMTAVF_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}
min_time=${SMTAVF_BENCH_MIN_TIME:-4}
reps=${SMTAVF_BENCH_REPETITIONS:-3}

if [ $# -ge 1 ]; then
    build=$1
elif [ -x "$repo/build-release/bench/bench_micro_sim" ]; then
    build=$repo/build-release
else
    build=$repo/build
fi

if [ ! -x "$build/bench/bench_micro_sim" ] ||
   [ ! -x "$build/bench/bench_campaign_setup" ]; then
    echo "==> benchmarks not built; configuring $build (Release)"
    cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" -j "$jobs" --target bench_micro_sim \
          bench_campaign_setup
fi

echo "==> running bench_micro_sim (min_time=${min_time}s x${reps})"
"$build/bench/bench_micro_sim" \
    --benchmark_min_time="$min_time" \
    --benchmark_repetitions="$reps" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="$repo/BENCH_micro.json.micro" \
    --benchmark_out_format=json

# Campaign setup throughput: runs/s for a 1000-short-run campaign in
# thread mode and in process mode with 1 and 32 runs per child. The
# binary gates on journals byte-identical to a serial loop before it
# times anything.
echo "==> running bench_campaign_setup (worker-reuse gate + runs/s)"
"$build/bench/bench_campaign_setup" \
    --benchmark_format=json \
    --benchmark_out="$repo/BENCH_micro.json.setup" \
    --benchmark_out_format=json

# Merge the reports: keep bench_micro_sim's context block, append the
# other binaries' benchmark rows.
python3 - "$repo/BENCH_micro.json.micro" "$repo/BENCH_micro.json.setup" \
        "$repo/BENCH_micro.json" <<'EOF'
import json, sys
micro = json.load(open(sys.argv[1]))
for extra in sys.argv[2:-1]:
    micro["benchmarks"].extend(json.load(open(extra))["benchmarks"])
json.dump(micro, open(sys.argv[-1], "w"), indent=2)
EOF
rm -f "$repo/BENCH_micro.json.micro" "$repo/BENCH_micro.json.setup"

echo "==> wrote $repo/BENCH_micro.json"
