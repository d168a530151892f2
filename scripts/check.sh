#!/usr/bin/env bash
# Full local gate: default build + tier-1 tests, sanitizer build +
# tests, thread-sanitizer pass over the concurrent subsystems
# (campaign pool, checkpoint writer, logging), campaign-engine smoke
# (JSON emission + serial/parallel parity), fault-matrix smoke
# (graceful-degradation audit under sanitizers), bounds-elision
# ablation (obligation gates + jobs parity), crash-resume check
# (SIGKILL mid-campaign + AOS_CAMPAIGN_RESUME byte parity), chaos-engine
# check (deterministic AOS_CHAOS fault injection with byte parity + the
# graceful-degradation audit) and clang-tidy lint. Run from the
# repository root:
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

echo "== [1/10] default build =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"

echo "== [2/10] tier-1 tests =="
ctest --preset default -j "${JOBS}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== [3/10] sanitizer build + fast tests (ASan+UBSan) =="
    cmake --preset sanitize
    cmake --build --preset sanitize -j "${JOBS}"
    ctest --preset sanitize -LE slow -j "${JOBS}"
    # The suite above dispatches QARMA batches through the widest
    # compiled-in kernel; re-exercise the cipher tests with the scalar
    # kernel forced so both dispatch paths stay sanitizer-clean.
    AOS_QARMA_KERNEL=scalar ./build-sanitize/tests/pac_vectors_test
    AOS_QARMA_KERNEL=scalar ./build-sanitize/tests/qarma_test
else
    echo "== [3/10] sanitizer pass skipped (AOS_CHECK_SKIP_SANITIZE=1) =="
fi

if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== [4/10] thread-sanitizer pass (TSan) =="
    # The campaign worker pool, checkpoint writer and logging sinks are
    # the only concurrent subsystems: build exactly what exercises
    # them, run their suites, then drive a jobs=4 campaign end to end
    # under TSan so the pool races against the JSON/checkpoint writers.
    cmake --preset tsan
    cmake --build --preset tsan -j "${JOBS}" --target \
        campaign_smoke campaign_test checkpoint_test logging_test
    ./build-tsan/tests/campaign_test
    ./build-tsan/tests/checkpoint_test
    ./build-tsan/tests/logging_test
    AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
        AOS_CAMPAIGN_JSON="${SMOKE_DIR}/tsan-smoke.json" \
        ./build-tsan/bench/campaign_smoke
    grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/tsan-smoke.json"
    echo "tsan: concurrency suites OK"
else
    echo "== [4/10] TSan pass skipped (AOS_CHECK_SKIP_SANITIZE=1) =="
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

echo "== [5/10] campaign smoke (JSON + jobs=1 vs jobs=4 parity) =="
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/serial.json" ./build/bench/campaign_smoke
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/parallel.json" ./build/bench/campaign_smoke
test -s "${SMOKE_DIR}/serial.json"
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/serial.json"
json_parity "${SMOKE_DIR}/serial.json" "${SMOKE_DIR}/parallel.json" \
    "campaign smoke"
echo "campaign smoke: parity OK"

echo "== [6/10] fault-matrix smoke (DESIGN.md §8 audit) =="
# Run the graceful-degradation audit under the sanitizer build when
# available — injected corruption must be UB-free, not just survivable.
FAULT_BIN=./build/bench/fault_matrix
if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    FAULT_BIN=./build-sanitize/bench/fault_matrix
fi
AOS_SIM_OPS=40000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/fault1.json" "${FAULT_BIN}"
AOS_SIM_OPS=40000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/faultN.json" "${FAULT_BIN}"
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/fault1.json"
json_parity "${SMOKE_DIR}/fault1.json" "${SMOKE_DIR}/faultN.json" \
    "fault matrix"
echo "fault matrix: audit + parity OK"

echo "== [7/10] bounds-elision ablation (obligation gates + parity) =="
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

echo "== [8/10] crash-resume (SIGKILL mid-campaign, resume, parity) =="
# Kill a checkpointed campaign once its first record is durable, resume
# it with AOS_CAMPAIGN_RESUME, and require the canonical JSON to be
# byte-identical to an uninterrupted run (DESIGN.md §10).
resume_check() {
    local name="$1" bin="$2" jobs="$3" ops="$4"
    local dir="${SMOKE_DIR}/resume-${name}-j${jobs}"
    mkdir -p "${dir}"
    # Uninterrupted reference run.
    AOS_SIM_OPS="${ops}" AOS_CAMPAIGN_PROGRESS=0 \
        AOS_CAMPAIGN_JOBS="${jobs}" AOS_CAMPAIGN_JSON=off \
        AOS_CAMPAIGN_JSON_CANONICAL="${dir}/clean.json" \
        "${bin}" > /dev/null
    # Checkpointed run, SIGKILLed as soon as a shard holds a record.
    AOS_SIM_OPS="${ops}" AOS_CAMPAIGN_PROGRESS=0 \
        AOS_CAMPAIGN_JOBS="${jobs}" AOS_CAMPAIGN_JSON=off \
        AOS_CAMPAIGN_RESUME="${dir}/ckpt" \
        "${bin}" > /dev/null 2>&1 &
    local pid=$!
    for _ in $(seq 1 600); do
        if [ -n "$(find "${dir}/ckpt" -name 'shard-*.log' -size +0c \
                   2>/dev/null)" ]; then
            break
        fi
        kill -0 "${pid}" 2>/dev/null || break
        sleep 0.05
    done
    kill -9 "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
    # Resumed run must reproduce the reference byte-for-byte and must
    # not re-execute the jobs whose records survived the kill.
    AOS_SIM_OPS="${ops}" AOS_CAMPAIGN_PROGRESS=0 \
        AOS_CAMPAIGN_JOBS="${jobs}" AOS_CAMPAIGN_JSON=off \
        AOS_CAMPAIGN_JSON_CANONICAL="${dir}/resumed.json" \
        AOS_CAMPAIGN_RESUME="${dir}/ckpt" \
        "${bin}" > "${dir}/resumed.log"
    if ! cmp -s "${dir}/clean.json" "${dir}/resumed.json"; then
        echo "${name} (jobs=${jobs}): kill-and-resume canonical parity" \
             "FAILED" >&2
        diff "${dir}/clean.json" "${dir}/resumed.json" | head -40 >&2 ||
            true
        exit 1
    fi
    if ! grep -q 'resumed' "${dir}/resumed.log"; then
        echo "${name} (jobs=${jobs}): resumed run reported no restored" \
             "jobs" >&2
        exit 1
    fi
    echo "  ${name} (jobs=${jobs}): resume parity OK"
}
resume_check fig14 ./build/bench/fig14_exec_time 1 20000
resume_check fig14 ./build/bench/fig14_exec_time 4 20000
resume_check fault_matrix "${FAULT_BIN}" 4 20000

echo "== [9/10] chaos engine (fault injection + degradation audit) =="
# DESIGN.md §13: under a fixed AOS_CHAOS schedule every subsystem must
# either absorb the injected environment faults (retry/backoff) or
# abort cleanly — and whenever a campaign reports success its canonical
# JSON must be byte-identical to the chaos-free reference, because
# chaos is an execution-only knob like the worker count.
CHAOS_DIR="${SMOKE_DIR}/chaos"
mkdir -p "${CHAOS_DIR}"

# Chaos-free serial reference (canonical emission).
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/smoke-serial.json" \
    ./build/bench/campaign_smoke > /dev/null

# Checkpointed campaign under disk chaos (torn appends, failed fsyncs,
# ENOSPC): the retry-with-truncation discipline must reproduce the
# serial reference bytes.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CHAOS="1337,12,disk" \
    AOS_CAMPAIGN_RESUME="${CHAOS_DIR}/ckpt" AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/smoke-chaos.json" \
    ./build/bench/campaign_smoke > /dev/null
if ! cmp -s "${CHAOS_DIR}/smoke-serial.json" \
            "${CHAOS_DIR}/smoke-chaos.json"; then
    echo "chaos: campaign_smoke disk-chaos parity FAILED" >&2
    diff "${CHAOS_DIR}/smoke-serial.json" \
         "${CHAOS_DIR}/smoke-chaos.json" | head -40 >&2 || true
    exit 1
fi
echo "  campaign_smoke: disk-chaos checkpointed parity OK"

# The graceful-degradation audit itself: >= 500 scenarios, zero
# contract violations, and its own canonical JSON must not depend on
# the worker count (the audit audits itself).
AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/audit1.json" \
    ./build/bench/chaos_audit
AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/auditN.json" \
    ./build/bench/chaos_audit > /dev/null
if ! cmp -s "${CHAOS_DIR}/audit1.json" "${CHAOS_DIR}/auditN.json"; then
    echo "chaos: audit jobs=1 vs jobs=4 parity FAILED" >&2
    diff "${CHAOS_DIR}/audit1.json" "${CHAOS_DIR}/auditN.json" |
        head -40 >&2 || true
    exit 1
fi
echo "  chaos_audit: degradation audit + parity OK"

echo "== [10/10] lint =="
cmake --build --preset default --target lint

echo "All checks passed."
