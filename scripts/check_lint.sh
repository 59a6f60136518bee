#!/usr/bin/env bash
# Lint soundness gate, the `lint_soundness` ctest (`ctest -C gates -L
# '^lint$'`, see CMakeLists.txt): the static analyzer's full acceptance
# sweep.
#
#   1. exo2lint --all over every registry kernel plus the demo
#      kernels: zero Error-level findings, and the run must prove at
#      least one kernel safe (a sweep that discharges nothing is
#      vacuous and fails).
#   2. test_lint with an enlarged fuzz budget (EXO2_LINT_FUZZ_SEEDS,
#      default 40 -> the tri-oracle campaign's 212-schedule corpus):
#      every fuzzed schedule lints Error-free, and a proven-safe
#      verdict contradicted by a real crash fails the run with a
#      ddmin repro (FuzzResult::Status::LintUnsound).
#
# Usage: scripts/check_lint.sh <test_lint binary> <exo2lint binary> [seeds]
set -euo pipefail

test_lint="${1:?usage: check_lint.sh <test_lint> <exo2lint> [seeds]}"
exo2lint="${2:?usage: check_lint.sh <test_lint> <exo2lint> [seeds]}"
seeds="${3:-40}"

echo "=== exo2lint --all (registry + demo kernels) ==="
out="$("$exo2lint" --all)"
echo "$out"

# Anti-vacuity: the sweep must have linted kernels and proven some
# safe. `exo2lint --all` already exits nonzero on any Error finding.
linted=$(grep -c 'obligations proven' <<<"$out" || true)
safe=$(grep -c 'proven safe' <<<"$out" || true)
if [ "$linted" -lt 10 ]; then
    echo "check_lint: vacuous sweep: only $linted kernels linted" >&2
    exit 1
fi
if [ "$safe" -lt 1 ]; then
    echo "check_lint: vacuous sweep: no kernel proven safe" >&2
    exit 1
fi
echo "check_lint: $linted kernels linted, $safe proven safe"

echo "=== test_lint (fuzz corpus budget: $seeds seeds/kernel) ==="
EXO2_LINT_FUZZ_SEEDS="$seeds" exec "$test_lint"
