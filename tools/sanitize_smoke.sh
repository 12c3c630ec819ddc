#!/bin/sh
# Sanitizer smoke for the simulator:
#   1. ASan+UBSan build: quickstart example + fault-injected CLI
#      scenario (the `smoke` target), the FTL unit tests (test_ssd,
#      test_properties, test_fault: the FTL indexes flat raw arrays, so
#      ASan stands in for per-block bounds), an isol_lint pass over the
#      tree (so the lint tool itself runs sanitized), a short isol_fuzz
#      campaign with runtime invariants on, and the D5 degraded-tenant
#      study with ISOL_CHECK_INVARIANTS=1 — faults, adversaries and the
#      invariant hooks all under the sanitizer.
#   2. TSan build: the sweep-layer tests (pool determinism, and the
#      guard copy into workers plus the checkpoint-log lock) and the
#      fig5 bench with 4 worker threads, the configuration that
#      exercises the shared-nothing worker pool hardest.
#
# Usage: tools/sanitize_smoke.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-asan build-tsan)
set -eu

ASAN_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

echo "== ASan/UBSan =="
cmake -S "$SRC_DIR" -B "$ASAN_DIR" -DISOL_SANITIZE=address
cmake --build "$ASAN_DIR" -j
cmake --build "$ASAN_DIR" --target smoke
for t in test_ssd test_properties test_fault; do
    "$ASAN_DIR/tests/$t"
done
if ! "$ASAN_DIR/tools/isol_lint/isol_lint" --root "$SRC_DIR" \
        --rules D,P,U --report-unused-suppressions; then
    echo "sanitize_smoke: isol_lint found violations (or stale" \
        "suppressions); failing the smoke" >&2
    exit 1
fi
"$ASAN_DIR/tools/isol_fuzz/isol_fuzz" --seeds 16 --jobs 4 \
    --check-invariants
"$ASAN_DIR/tools/isol_fuzz/isol_fuzz" --seeds 2 --jobs 1 \
    --mutate bucket --check-invariants --expect-violations
ISOL_CHECK_INVARIANTS=1 "$ASAN_DIR/examples/degraded_tenant"

echo "== TSan =="
cmake -S "$SRC_DIR" -B "$TSAN_DIR" -DISOL_SANITIZE=thread
cmake --build "$TSAN_DIR" -j --target test_sweep
cmake --build "$TSAN_DIR" -j --target test_supervisor
cmake --build "$TSAN_DIR" -j --target fig5_fairness
ISOL_JOBS=4 "$TSAN_DIR/tests/test_sweep"
ISOL_JOBS=4 "$TSAN_DIR/tests/test_supervisor"
(cd "$TSAN_DIR" && ISOL_BENCH_QUICK=1 ./bench/fig5_fairness --jobs 4)

echo "sanitize_smoke: OK"
