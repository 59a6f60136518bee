#!/usr/bin/env bash
# Run bench_autotune several times and record the result as one
# labelled run in BENCH_autotune.json at the repo root (a label already
# there is replaced). Per kernel the run keeps the median, minimum and
# maximum tune wall clock and search phase over the repeats, the median
# GFLOP/s, the search counts (which must repeat exactly), and every
# repeat's full row.
#
# Usage: scripts/bench_autotune.sh [label] [bench_autotune binary] [repeats]
#   label defaults to the abbreviated git HEAD, repeats to 3. Without a
#   binary, a Release build in build-bench/ is configured and built. To
#   record a before/after pair on one machine, build bench_autotune in
#   a checkout of the older revision and pass that binary with its own
#   label.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
binary="${2:-}"
repeats="${3:-3}"
if [[ -z "$binary" ]]; then
    build_dir=build-bench
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DEXO2_BUILD_TESTS=OFF -DEXO2_BUILD_EXAMPLES=OFF
    cmake --build "$build_dir" -j"$(nproc)" --target bench_autotune
    binary="./$build_dir/bench_autotune"
fi
raw_dir=$(mktemp -d /tmp/exo2_bench_autotune.XXXXXX)
trap 'rm -rf "$raw_dir"' EXIT

for ((i = 1; i <= repeats; i++)); do
    echo "bench_autotune repeat $i/$repeats" >&2
    # Exit 2 means fewer than 3/5 kernels reached 80% of hand; the
    # numbers are still recorded.
    "$binary" "$raw_dir/$i.json" || [[ $? -eq 2 ]]
done

python3 - "$label" BENCH_autotune.json "$raw_dir"/*.json <<'EOF'
import datetime, json, os, statistics, subprocess, sys

label, out_path, raw_paths = sys.argv[1], sys.argv[2], sys.argv[3:]
repeats = [json.load(open(p)) for p in sorted(raw_paths)]


def spread(values):
    return {"median": round(statistics.median(values), 1),
            "min": round(min(values), 1), "max": round(max(values), 1)}


kernels = []
for rows in zip(*(r["kernels"] for r in repeats)):
    first = rows[0]
    for key in ("states_scored", "sim_cycles_naive"):
        if len({row[key] for row in rows}) != 1:
            sys.exit(f"{first['name']}: {key} differs between repeats")
    k = {"name": first["name"], "sizes": first["sizes"],
         "states_scored": first["states_scored"],
         "sim_cycles_naive": first["sim_cycles_naive"],
         "tune_wall_ms": spread([row["tune_wall_ms"] for row in rows]),
         "search_ms": spread([row["tune_phases_ms"]["search"]
                              for row in rows])}
    for key in ("naive_gflops", "hand_gflops", "tuned_gflops",
                "tuned_vs_hand"):
        k[key] = round(statistics.median(row[key] for row in rows), 3)
    k["repeats"] = [{key: row[key] for key in row
                     if key not in ("name", "sizes")} for row in rows]
    kernels.append(k)

cpu = "unknown"
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
cc = os.environ.get("CC") or "cc"
try:
    cc_version = subprocess.run([cc, "--version"], capture_output=True,
                                text=True).stdout.splitlines()[0]
except (OSError, IndexError):
    cc_version = "unknown"
entry = {"label": label, "date": datetime.date.today().isoformat(),
         "machine": {"cpu": cpu, "nproc": os.cpu_count(), "cc": cc_version},
         "repeats": len(repeats), "kernels": kernels,
         "lint_gate": repeats[-1]["lint_gate"],
         "tuned_at_80pct_of_hand": [r["tuned_at_80pct_of_hand"]
                                    for r in repeats]}

try:
    doc = json.load(open(out_path))
except FileNotFoundError:
    doc = {}
doc = {
    "description": "autotuned-from-naive vs hand-scheduled GFLOP/s of "
                   "JIT-compiled kernels and tune wall clock, median "
                   "(min, max) over repeats; one run per label, compare "
                   "runs only on the same machine (see bench/README.md)",
    "runs": [r for r in doc.get("runs", []) if r["label"] != label] + [entry],
}
tmp_path = f"{out_path}.tmp.{os.getpid()}"
with open(tmp_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
    f.flush()
    os.fsync(f.fileno())
os.replace(tmp_path, out_path)
print(f"recorded '{label}' in {out_path}")
EOF
