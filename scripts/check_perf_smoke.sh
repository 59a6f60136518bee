#!/usr/bin/env bash
# Perf smoke check, the `perf_smoke` ctest (`ctest -C gates -L '^perf$'`,
# see CMakeLists.txt): run the long-schedule benchmark once and fail if
# BM_LongSchedule/800 is more than 2x slower than the accelerated
# baseline recorded in BENCH_schedule_time.json.
#
# Usage: scripts/check_perf_smoke.sh <bench_schedule_time binary> [traj.json]
set -euo pipefail

bench="${1:?usage: check_perf_smoke.sh <bench_schedule_time binary> [traj.json]}"

traj="${2:-$(cd "$(dirname "$0")/.." && pwd)/BENCH_schedule_time.json}"
raw=$(mktemp /tmp/exo2_perf_smoke.XXXXXX.json)
trap 'rm -f "$raw"' EXIT

"$bench" --benchmark_filter='^BM_LongSchedule/800$' \
    --benchmark_out="$raw" --benchmark_out_format=json >&2

python3 - "$raw" "$traj" <<'EOF'
import json, sys

raw = json.load(open(sys.argv[1]))
traj = json.load(open(sys.argv[2]))

NAME = "BM_LongSchedule/800"
cur = next((b["real_time"] for b in raw["benchmarks"]
            if b["name"] == NAME
            and b.get("run_type", "iteration") == "iteration"), None)
if cur is None:
    sys.exit(f"{NAME} missing from benchmark output {sys.argv[1]}")

# Baseline: the latest recorded entry for the accelerated configuration
# (pre-PR "pre-baseline" entries measure the naive paths and are not a
# regression reference).
base = None
for e in traj["entries"]:
    if "pre-baseline" in e["label"]:
        continue
    t = e["benchmarks"].get(NAME)
    if t:
        base = (e["label"], t["real_time_ms"])

if base is None:
    sys.exit(f"no accelerated baseline for {NAME} in {sys.argv[2]}")

label, base_ms = base
print(f"{NAME}: current {cur:.2f} ms, baseline {base_ms:.2f} ms "
      f"('{label}')")
if cur > 2.0 * base_ms:
    sys.exit(f"PERF REGRESSION: {cur:.2f} ms is more than 2x the "
             f"recorded baseline {base_ms:.2f} ms")
print("perf smoke OK")
EOF
