#!/usr/bin/env bash
# Full local gate: default build + tier-1 tests, sanitizer build +
# tests, thread-sanitizer pass over the concurrent subsystems
# (campaign pool, logging), the elision ablation (its five gates: the
# obligation court, bndstr coverage, the stream verifier, attack parity
# and pointer-fault parity, + jobs parity), the paper sweep
# (all five Figs. 14-18 tables, JSON emission + jobs parity) and
# clang-tidy lint.
# Run from the repository root:
#
#   scripts/check.sh              # everything
#   AOS_CHECK_SKIP_SANITIZE=1 scripts/check.sh   # skip ASan and TSan
#
# The tier-1 stage runs every test; the sanitizer stage runs the fast
# set (`-LE slow`) plus the MCU differential fuzz — the full suite
# under ASan is a CI-budget call, and every slow test still runs
# uninstrumented in stage 2.
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
    # The MCU differential fuzz is labelled slow, so the run above
    # skips it. It drives the MCQ's armed-slot walk (mask rotations),
    # the commit cursor's ring arithmetic and the BWB's hash index
    # through every FSM path: exactly what UBSan checks.
    ./build-sanitize/tests/mcu_differential_test
else
    echo "== [3/7] sanitizer pass skipped (AOS_CHECK_SKIP_SANITIZE=1) =="
fi

if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== [4/7] thread-sanitizer pass (TSan) =="
    # The campaign worker pool and logging sinks are the only
    # concurrent subsystems: build exactly what exercises them and run
    # their suites (campaign_test drives multi-worker simulation
    # campaigns and checks their canonical JSON).
    cmake --preset tsan
    cmake --build --preset tsan -j "${JOBS}" --target \
        campaign_test logging_test
    ./build-tsan/tests/campaign_test
    ./build-tsan/tests/logging_test
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

echo "== [5/7] elision ablation (court, bndstr coverage, verifier, attack parity, pointer-fault parity + jobs parity) =="
# The benchmark itself exits non-zero if any of its five gates fails:
# an ObligationChecker plan rejection, bndstr elision coverage below
# the floor, a stream-verifier diagnostic, attack-detection parity or
# pointer-fault parity (DESIGN.md §6.2, §11); the wrapper adds the
# determinism contract on top.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/elide1.json" \
    ./build/bench/elision_ablation
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/elideN.json" \
    ./build/bench/elision_ablation
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/elide1.json"
json_parity "${SMOKE_DIR}/elide1.json" "${SMOKE_DIR}/elideN.json" \
    "elision ablation"
echo "elision ablation: gates + parity OK"

echo "== [6/7] paper sweep (Figs. 14-18 tables + jobs parity) =="
# One campaign feeds all five figure tables; every table must print
# and the canonical JSON must match across worker counts.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/paper1.json" \
    ./build/bench/paper > "${SMOKE_DIR}/paper1.txt"
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/paperN.json" \
    ./build/bench/paper > "${SMOKE_DIR}/paperN.txt"
for fig in 14 15 16 17 18; do
    if ! grep -q "^Fig. ${fig}:" "${SMOKE_DIR}/paper1.txt"; then
        echo "paper sweep: Fig. ${fig} table missing" >&2
        exit 1
    fi
done
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/paper1.json"
json_parity "${SMOKE_DIR}/paper1.json" "${SMOKE_DIR}/paperN.json" \
    "paper sweep"
echo "paper sweep: tables + parity OK"

echo "== [7/7] lint =="
cmake --build --preset default --target lint

echo "All checks passed."
