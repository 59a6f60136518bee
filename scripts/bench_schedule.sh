#!/usr/bin/env bash
# Run the scheduling-time benchmarks and append an entry to the
# BENCH_schedule_time.json trajectory at the repo root (a label already
# there is replaced).
#
# Usage: scripts/bench_schedule.sh [label] [bench_schedule_time binary]
#   label defaults to the abbreviated git HEAD. Without a binary, a
#   Release build in build-bench/ is configured and built; to record a
#   before/after pair on one machine, build bench_schedule_time in a
#   checkout of the older revision and pass that binary with its own
#   label. Extra benchmark flags can be passed via EXO2_BENCH_FLAGS
#   (e.g. --benchmark_filter=Sgemm). With --benchmark_repetitions=N each
#   row records the median of the N runs as real_time_ms, plus their
#   min_ms, max_ms and runs.
#
#   Each benchmark runs alone in its own process, as the perf_smoke gate
#   (scripts/check_perf_smoke.sh) runs BM_LongSchedule/800: the intern
#   table and the analysis memo caches live for the whole process, so a
#   row run after others would time a different state than the gate
#   compares against it.
set -euo pipefail
binary="${2:+$(realpath "$2")}"
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
if [[ -z "$binary" ]]; then
    build_dir=build-bench
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DEXO2_BUILD_TESTS=OFF -DEXO2_BUILD_EXAMPLES=OFF
    cmake --build "$build_dir" -j"$(nproc)" --target bench_schedule_time
    binary="./$build_dir/bench_schedule_time"
fi
raw_dir=$(mktemp -d /tmp/exo2_bench_raw.XXXXXX)
trap 'rm -rf "$raw_dir"' EXIT

# The filter in EXO2_BENCH_FLAGS selects the rows; the per-row filter
# comes last so that it wins.
mapfile -t names < <(EXO2_BENCH_OUT="$raw_dir/list.json" "$binary" \
    ${EXO2_BENCH_FLAGS:-} --benchmark_list_tests=true)
if [[ ${#names[@]} -eq 0 ]]; then
    echo "bench_schedule.sh: no benchmark matches EXO2_BENCH_FLAGS" >&2
    exit 1
fi
raws=()
for i in "${!names[@]}"; do
    raws+=("$raw_dir/$i.json")
    EXO2_BENCH_OUT="$raw_dir/$i.json" "$binary" --benchmark_min_time=1 \
        ${EXO2_BENCH_FLAGS:-} --benchmark_filter="^${names[$i]}\$"
done

python3 - "$label" BENCH_schedule_time.json "${raws[@]}" <<'EOF'
import json, os, statistics, sys, datetime

label, traj_path, raw_paths = sys.argv[1], sys.argv[2], sys.argv[3:]

runs = {}
for raw_path in raw_paths:
    for b in json.load(open(raw_path))["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            runs.setdefault(b.get("run_name", b["name"]), []).append(
                b["real_time"])
benchmarks = {}
for name, times in runs.items():
    row = {"real_time_ms": round(statistics.median(times), 4)}
    if len(times) > 1:
        row.update(min_ms=round(min(times), 4), max_ms=round(max(times), 4),
                   runs=len(times))
    benchmarks[name] = row

entry = {
    "label": label,
    "date": datetime.date.today().isoformat(),
    "benchmarks": benchmarks,
}

try:
    traj = json.load(open(traj_path))
except FileNotFoundError:
    traj = {"description": "Scheduling-time benchmark trajectory; one "
                           "entry per measured revision (ms, real time).",
            "entries": []}

traj["entries"] = [e for e in traj["entries"] if e["label"] != label]
traj["entries"].append(entry)
# Atomic replace: a crash mid-dump must not truncate the trajectory.
tmp_path = f"{traj_path}.tmp.{os.getpid()}"
with open(tmp_path, "w") as f:
    json.dump(traj, f, indent=2)
    f.flush()
    os.fsync(f.fileno())
os.replace(tmp_path, traj_path)
print(f"appended '{label}' to {traj_path}")
EOF
