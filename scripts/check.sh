#!/usr/bin/env bash
# Full local gate: default build + tier-1 tests, sanitizer build +
# tests, thread-sanitizer pass over the concurrent subsystems
# (campaign pool, logging), campaign-engine smoke (JSON emission +
# serial/parallel parity), bounds-elision ablation (obligation gates,
# including the pointer-fault replay, + jobs parity) and clang-tidy
# lint. Run from the repository root:
#
#   scripts/check.sh              # everything
#   AOS_CHECK_SKIP_SANITIZE=1 scripts/check.sh   # skip ASan and TSan
#
# The tier-1 stage runs every test; the sanitizer stage runs the fast
# set (`-LE slow`) — the full suite under ASan is a CI-budget call,
# and every slow test still runs uninstrumented in stage 2.
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${AOS_CHECK_JOBS:-$(nproc)}"

echo "== [1/7] default build =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"

echo "== [2/7] tier-1 tests =="
ctest --preset default -j "${JOBS}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== [3/7] sanitizer build + fast tests (ASan+UBSan) =="
    cmake --preset sanitize
    cmake --build --preset sanitize -j "${JOBS}"
    ctest --preset sanitize -LE slow -j "${JOBS}"
    # The suite above dispatches QARMA batches through the widest
    # compiled-in kernel; re-exercise the cipher tests with the scalar
    # kernel forced so both dispatch paths stay sanitizer-clean.
    AOS_QARMA_KERNEL=scalar ./build-sanitize/tests/pac_vectors_test
    AOS_QARMA_KERNEL=scalar ./build-sanitize/tests/qarma_test
else
    echo "== [3/7] sanitizer pass skipped (AOS_CHECK_SKIP_SANITIZE=1) =="
fi

if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== [4/7] thread-sanitizer pass (TSan) =="
    # The campaign worker pool and logging sinks are the only
    # concurrent subsystems: build exactly what exercises them, run
    # their suites, then drive a jobs=4 campaign end to end under TSan
    # so the pool races against the JSON writer.
    cmake --preset tsan
    cmake --build --preset tsan -j "${JOBS}" --target \
        campaign_smoke campaign_test logging_test
    ./build-tsan/tests/campaign_test
    ./build-tsan/tests/logging_test
    AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
        AOS_CAMPAIGN_JSON="${SMOKE_DIR}/tsan-smoke.json" \
        ./build-tsan/bench/campaign_smoke
    grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/tsan-smoke.json"
    echo "tsan: concurrency suites OK"
else
    echo "== [4/7] TSan pass skipped (AOS_CHECK_SKIP_SANITIZE=1) =="
fi

# Strip the timing-only fields (each JSON member is on its own line)
# and require byte-equality: the determinism contract of DESIGN.md §7.
json_parity() {
    if ! diff \
        <(grep -vE '"(workers|wall_ms|total_wall_ms)"' "$1") \
        <(grep -vE '"(workers|wall_ms|total_wall_ms)"' "$2")
    then
        echo "$3: serial/parallel parity FAILED" >&2
        exit 1
    fi
}

echo "== [5/7] campaign smoke (JSON + jobs=1 vs jobs=4 parity) =="
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/serial.json" ./build/bench/campaign_smoke
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/parallel.json" ./build/bench/campaign_smoke
test -s "${SMOKE_DIR}/serial.json"
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/serial.json"
json_parity "${SMOKE_DIR}/serial.json" "${SMOKE_DIR}/parallel.json" \
    "campaign smoke"
echo "campaign smoke: parity OK"

echo "== [6/7] bounds-elision ablation (obligation gates + parity) =="
# The benchmark itself exits non-zero if any ObligationChecker gate
# fails or elision coverage collapses (DESIGN.md §11); the wrapper adds
# the determinism contract on top.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/belide1.json" \
    ./build/bench/bounds_elision
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/belideN.json" \
    ./build/bench/bounds_elision
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/belide1.json"
json_parity "${SMOKE_DIR}/belide1.json" "${SMOKE_DIR}/belideN.json" \
    "bounds elision"
echo "bounds elision: gates + parity OK"

echo "== [7/7] lint =="
cmake --build --preset default --target lint

echo "All checks passed."
