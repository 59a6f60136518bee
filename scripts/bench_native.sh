#!/usr/bin/env bash
# Run bench_native and record its result as one labelled run in
# BENCH_native_gflops.json at the repo root (a label already there is
# replaced).
#
# Usage: scripts/bench_native.sh [label] [bench_native binary]
#   label defaults to the abbreviated git HEAD. Without a binary, a
#   Release build in build-bench/ is configured and built. To record a
#   before/after pair on one machine, build bench_native in a checkout
#   of the older revision and pass that binary with its own label.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
binary="${2:-}"
if [[ -z "$binary" ]]; then
    build_dir=build-bench
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DEXO2_BUILD_TESTS=OFF -DEXO2_BUILD_EXAMPLES=OFF
    cmake --build "$build_dir" -j"$(nproc)" --target bench_native
    binary="./$build_dir/bench_native"
fi
raw_out=$(mktemp /tmp/exo2_bench_native.XXXXXX.json)
trap 'rm -f "$raw_out"' EXIT

"$binary" "$raw_out"

python3 - "$label" "$raw_out" BENCH_native_gflops.json <<'EOF'
import datetime, json, os, platform, subprocess, sys

label, raw_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
run = json.load(open(raw_path))
run.pop("description", None)
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
         "machine": {"cpu": cpu, "nproc": os.cpu_count(), "cc": cc_version}}
entry.update(run)

try:
    doc = json.load(open(out_path))
except FileNotFoundError:
    doc = {}
doc = {
    "description": "scalar vs native-intrinsics GFLOP/s of JIT-compiled "
                   "scheduled kernels and native build time (median, min "
                   "and max of 5 builds); one run per label, compare runs "
                   "only on the same machine (see bench/README.md)",
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
