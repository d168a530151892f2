#include "workloads/synthetic_workload.hh"

#include <cmath>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace aos::workloads {

namespace {

constexpr unsigned kRecentCapacity = 40;

/** First global/stack address. */
constexpr Addr kGlobalBase = 0x00600000ull;

} // namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile &profile,
                                     u64 measure_ops, u64 seed_salt)
    : _profile(profile),
      _rng(Rng::hashName(profile.name) ^ (seed_salt * 0x9e3779b9ull)),
      _measureOps(measure_ops)
{
    // Assign per-branch biases: a hard (data-dependent) subset plus a
    // well-predictable majority.
    _branchBias.reserve(_profile.numBranches);
    for (unsigned b = 0; b < _profile.numBranches; ++b) {
        if (_rng.uniform() < _profile.hardBranchFraction)
            _branchBias.push_back(0.55 + 0.25 * _rng.uniform());
        else
            _branchBias.push_back(0.97 + 0.029 * _rng.uniform());
    }
    _recent.reserve(kRecentCapacity);
    _logChunkLo = std::log(static_cast<double>(_profile.heapChunkMin));
    _logChunkHi = std::log(static_cast<double>(_profile.heapChunkMax));
    _alloc.reserveLive(_profile.targetActive + 16);
}

u64
SyntheticWorkload::pickChunkSize()
{
    const double v = std::exp(
        _logChunkLo + (_logChunkHi - _logChunkLo) * _rng.uniform());
    return std::max<u64>(16, static_cast<u64>(v) & ~u64{7});
}

void
SyntheticWorkload::emitMalloc()
{
    const u64 size = pickChunkSize();
    const Addr user = _alloc.malloc(size);
    if (user == 0) {
        warn("%s: simulated heap exhausted", _profile.name.c_str());
        return;
    }
    // Allocator-internal work: bin search and header writes. These are
    // raw (unsigned) accesses into allocator metadata.
    ir::MicroOp alu;
    alu.kind = ir::OpKind::kIntAlu;
    push(alu);
    push(alu);
    ir::MicroOp hdr;
    hdr.kind = ir::OpKind::kStore;
    hdr.addr = user - 16;
    hdr.size = 8;
    push(hdr);
    hdr.addr = user - 8;
    push(hdr);

    ir::MicroOp mark;
    mark.kind = ir::OpKind::kMallocMark;
    mark.chunkBase = user;
    mark.size = static_cast<u32>(size);
    push(mark);
}

void
SyntheticWorkload::emitFree()
{
    if (_alloc.liveCount() == 0)
        return;
    const Addr victim = _alloc.liveChunk(_rng.below(_alloc.liveCount()));

    ir::MicroOp mark;
    mark.kind = ir::OpKind::kFreeMark;
    mark.chunkBase = victim;
    push(mark);

    // free() body: read our header, peek at the neighbours for
    // coalescing, update boundary tags — all legitimately out of the
    // freed object's bounds, which is why AOS strips the pointer first.
    ir::MicroOp op;
    op.kind = ir::OpKind::kLoad;
    op.addr = victim - 16;
    op.size = 8;
    push(op);
    const u64 size = _alloc.usableSize(victim);
    op.addr = victim + roundUp(std::max<u64>(size, 16), 16);
    push(op);
    op.kind = ir::OpKind::kIntAlu;
    op.addr = 0;
    push(op);
    op.kind = ir::OpKind::kStore;
    op.addr = victim - 16;
    push(op);

    _alloc.free(victim);
}

Addr
SyntheticWorkload::pickHeapAddr(Addr *chunk_base)
{
    const u64 live = _alloc.liveCount();
    if (live == 0) {
        *chunk_base = 0;
        return pickGlobalAddr();
    }

    // Temporal reuse: revisit a recent object and stream within it.
    if (!_recent.empty() && _rng.chance(_profile.reuse)) {
        RecentAccess &ra = _recent[_rng.below(_recent.size())];
        if (ra.base != 0 && _alloc.live(ra.base)) {
            // Re-validate the extent: the chunk may have been freed
            // and reallocated at the same base with a different size.
            ra.limit = ra.base + std::max<u64>(
                                     _alloc.usableSize(ra.base), 8);
            ra.addr += 8;
            if (ra.addr + 8 > ra.limit)
                ra.addr = ra.base;
            *chunk_base = ra.base;
            return ra.addr;
        }
    }

    // Fresh access: recency-biased chunk selection.
    const u64 idx = live - 1 - _rng.skewed(live);
    const Addr base = _alloc.liveChunk(idx);
    const u64 size = std::max<u64>(_alloc.usableSize(base), 8);
    const Addr addr = base + (_rng.below(size) & ~u64{7});

    RecentAccess ra{addr, base, base + size};
    if (_recent.size() < kRecentCapacity) {
        _recent.push_back(ra);
    } else {
        _recent[_recentPos] = ra;
        _recentPos = (_recentPos + 1) % kRecentCapacity;
    }
    *chunk_base = base;
    return addr;
}

Addr
SyntheticWorkload::pickGlobalAddr()
{
    // Skewed line selection over the global/stack footprint: a hot
    // subset absorbs most accesses, the tail exercises the caches.
    const u64 lines = std::max<u64>(_profile.globalFootprint / 64, 1);
    const u64 line = _rng.skewed(lines);
    return kGlobalBase + line * 64 + (_rng.below(64) & ~u64{7});
}

void
SyntheticWorkload::emitMemOp(bool is_load)
{
    ir::MicroOp op;
    op.kind = is_load ? ir::OpKind::kLoad : ir::OpKind::kStore;
    op.size = 8;
    if (_rng.chance(_profile.heapFraction)) {
        op.addr = pickHeapAddr(&op.chunkBase);
        if (is_load)
            op.loadsPointer = _rng.chance(_profile.pointerLoadFraction);
    } else {
        op.addr = pickGlobalAddr();
        if (is_load)
            op.loadsPointer =
                _rng.chance(_profile.pointerLoadFraction * 0.5);
    }
    push(op);
}

void
SyntheticWorkload::emitBranch()
{
    ir::MicroOp op;
    op.kind = ir::OpKind::kBranch;
    op.branchId = static_cast<u32>(_rng.below(_profile.numBranches));
    op.taken = _rng.chance(_branchBias[op.branchId]);
    push(op);
}

void
SyntheticWorkload::emitCallRet()
{
    ir::MicroOp op;
    if (_callDepth > 0 && (_callDepth > 12 || _rng.chance(0.5))) {
        op.kind = ir::OpKind::kRet;
        --_callDepth;
    } else {
        op.kind = ir::OpKind::kCall;
        ++_callDepth;
    }
    push(op);
}

void
SyntheticWorkload::emitWarmupStep()
{
    if (_alloc.liveCount() < _profile.targetActive) {
        emitMalloc();
        return;
    }
    _warmupDone = true;
    ir::MicroOp mark;
    mark.kind = ir::OpKind::kPhaseMark;
    push(mark);
}

void
SyntheticWorkload::refill()
{
    if (!_warmupDone) {
        emitWarmupStep();
        if (!_pending.empty())
            return;
    }

    // Allocation schedule: steady-state churn keeps the live set at
    // the target by pairing each malloc with a free.
    _allocAccum += _profile.allocsPerKOp / 1000.0;
    if (_allocAccum >= 1.0) {
        _allocAccum -= 1.0;
        if (_alloc.liveCount() >= _profile.targetActive)
            emitFree();
        emitMalloc();
        return;
    }

    const u64 roll = _rng.below(1000);
    u64 edge = _profile.loadPerMille;
    if (roll < edge) {
        emitMemOp(true);
        return;
    }
    edge += _profile.storePerMille;
    if (roll < edge) {
        emitMemOp(false);
        return;
    }
    edge += _profile.branchPerMille;
    if (roll < edge) {
        emitBranch();
        return;
    }
    edge += _profile.fpPerMille;
    if (roll < edge) {
        ir::MicroOp op;
        op.kind = ir::OpKind::kFpAlu;
        push(op);
        return;
    }
    edge += _profile.callPerMille;
    if (roll < edge) {
        emitCallRet();
        return;
    }
    ir::MicroOp op;
    op.kind = ir::OpKind::kIntAlu;
    op.isPtrArith = _rng.chance(_profile.ptrArithFraction);
    push(op);
}

bool
SyntheticWorkload::next(ir::MicroOp &op)
{
    if (_warmupDone && _measureOps && _measuredEmitted >= _measureOps &&
        pendingEmpty()) {
        return false;
    }
    if (pendingEmpty()) {
        _pending.clear();
        _pendingHead = 0;
        while (_pending.empty())
            refill();
    }
    op = _pending[_pendingHead++];
    if (_warmupDone && op.kind != ir::OpKind::kPhaseMark)
        ++_measuredEmitted;
    return true;
}

} // namespace aos::workloads
