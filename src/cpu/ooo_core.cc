#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>

#include "common/cancel.hh"
#include "common/logging.hh"

namespace aos::cpu {

OoOCore::OoOCore(const CoreConfig &config, pa::PointerLayout layout,
                 memsim::MemorySystem *mem, mcu::MemoryCheckUnit *mcu)
    : _config(config), _layout(layout), _mem(mem), _mcu(mcu)
{
    panic_if(!mem, "core requires a memory system");
    const u32 slots = std::bit_ceil(std::max(config.robEntries, 1u));
    _rob.resize(slots);
    _robMask = slots - 1;
}

Cycles
OoOCore::execLatency(const ir::MicroOp &op, Tick now)
{
    switch (op.kind) {
      case ir::OpKind::kFpAlu:
        return _config.fpLatency;
      case ir::OpKind::kPacma:
      case ir::OpKind::kPacia:
        return _config.pacLatency;
      case ir::OpKind::kAutia:
        // The authenticated return address feeds the fetch redirect:
        // the frontend cannot run fully ahead of the authentication
        // (half the crypto latency overlaps with the return itself).
        _fetchBlockedUntil = std::max<Tick>(
            _fetchBlockedUntil, now + _config.pacLatency / 2);
        return _config.pacLatency;
      case ir::OpKind::kAutm:
      case ir::OpKind::kXpacm:
        return _config.stripLatency;
      case ir::OpKind::kLoad:
      case ir::OpKind::kWdMetaLoad:
        // Cache hierarchy determines the latency; index with the raw
        // address (the PAC/AHC bits are above the translated VA).
        return _mem->dataAccess(_layout.strip(op.addr), false);
      case ir::OpKind::kStore:
      case ir::OpKind::kWdMetaStore:
        // Stores complete into the store queue quickly; the cache line
        // is touched now for pollution/traffic accounting.
        _mem->dataAccess(_layout.strip(op.addr), true);
        return 1;
      case ir::OpKind::kBranch: {
        const Addr pc = 0x400000 + static_cast<Addr>(op.branchId) * 4;
        const bool predicted = _tage.resolve(pc, op.taken);
        ++_stats.branches;
        if (predicted != op.taken) {
            ++_stats.mispredicts;
            // Frontend redirect. When the MCQ recently back-pressured
            // issue the frontend had not run ahead, so part of the
            // redirect penalty is hidden (the paper's "fewer
            // aggressive branch predictions" effect on milc/namd/
            // gobmk/astar).
            const Cycles penalty = (now < _mcqStallCooldownUntil)
                                       ? _config.mispredictPenalty / 2
                                       : _config.mispredictPenalty;
            _fetchBlockedUntil =
                std::max<Tick>(_fetchBlockedUntil, now + penalty);
        }
        return 1;
      }
      default:
        return 1;
    }
}

bool
OoOCore::issueOne(const ir::MicroOp &op, Tick now)
{
    if (robFull()) {
        ++_stats.robFullStalls;
        return false;
    }

    const bool is_load = op.kind == ir::OpKind::kLoad ||
                         op.kind == ir::OpKind::kWdMetaLoad;
    const bool is_store = op.kind == ir::OpKind::kStore ||
                          op.kind == ir::OpKind::kWdMetaStore;
    const bool is_bounds = op.isBoundsOp();

    if (is_load && _loadsInFlight >= _config.lqEntries) {
        ++_stats.lsqFullStalls;
        return false;
    }
    if (is_store && _storesInFlight >= _config.sqEntries) {
        ++_stats.lsqFullStalls;
        return false;
    }

    // AOS: every load/store must also find room in the MCQ; bndstr and
    // bndclr are issued directly to the MCU (Fig. 6).
    const bool needs_mcq =
        _mcu && (is_bounds || op.kind == ir::OpKind::kLoad ||
                 op.kind == ir::OpKind::kStore);
    if (needs_mcq && _mcu->full()) {
        ++_stats.mcqFullStalls;
        return false;
    }

    RobEntry entry;
    entry.seq = _nextSeq++;
    entry.kind = op.kind;
    entry.isLoad = is_load;
    entry.isStore = is_store;
    entry.inMcq = needs_mcq;
    entry.doneAt = now + execLatency(op, now);

    if (needs_mcq) {
        const bool ok = _mcu->enqueue(op.kind, op.addr, op.size, entry.seq,
                                      now);
        panic_if(!ok, "MCQ accepted full() but rejected enqueue");
    }

    if (is_load)
        ++_loadsInFlight;
    if (is_store)
        ++_storesInFlight;

    // Synthetic instruction fetch: one L1-I probe per new 64-byte
    // fetch line, walking a code region of the configured footprint.
    if (++_fetchedInLine >= 16) {
        _fetchedInLine = 0;
        _fetchPc += 64;
        if (_fetchPc >= 0x400000 + _config.codeFootprint)
            _fetchPc = 0x400000;
        _mem->fetchAccess(_fetchPc);
    }

    _rob[(_robHead + _robCount) & _robMask] = entry;
    ++_robCount;
    return true;
}

bool
OoOCore::commit(Tick now)
{
    unsigned slot = 0;
    for (; slot < _config.commitWidth && _robCount > 0; ++slot) {
        const RobEntry &head = robHead();
        if (head.doneAt > now)
            break;
        if (head.inMcq && !_mcu->readyToRetire(head.seq)) {
            // Delayed retirement: the bounds check has not finished
            // (or the bndstr occupancy check is still running).
            ++_stats.retireDelayed;
            break;
        }
        if (head.inMcq)
            _mcu->markCommitted(head.seq);
        if (head.isLoad)
            --_loadsInFlight;
        if (head.isStore)
            --_storesInFlight;
        if (head.kind == ir::OpKind::kLoad)
            ++_stats.loads;
        else if (head.kind == ir::OpKind::kStore)
            ++_stats.stores;
        ++_stats.committed;
        _robHead = (_robHead + 1) & _robMask;
        --_robCount;
    }
    return slot > 0;
}

Tick
OoOCore::nextEvent(Tick now, bool can_issue) const
{
    constexpr Tick kNone = ~Tick{0};
    Tick event = kNone;
    if (_robCount > 0 && robHead().doneAt > now)
        event = robHead().doneAt;
    if (_mcu)
        event = std::min(event, _mcu->nextWake());
    if (can_issue && _fetchBlockedUntil > now)
        event = std::min(event, _fetchBlockedUntil);
    return event == kNone ? now + 1 : std::max(event, now + 1);
}

const CoreStats &
OoOCore::run(ir::InstStream &stream, u64 max_ops)
{
    Tick now = _stats.cycles;
    // Ops are pulled a block at a time, never past max_ops issued in
    // this call, so every pulled op has issued by the time the stream
    // is done.
    const u64 first_seq = _nextSeq;
    constexpr size_t kPullBlock = 64;
    ir::MicroOp block[kPullBlock];
    size_t pos = 0;
    size_t filled = 0;
    bool stream_done = false;

    while (true) {
        const u64 retire_delayed = _stats.retireDelayed;
        const u64 rob_full = _stats.robFullStalls;
        const u64 lsq_full = _stats.lsqFullStalls;
        const u64 mcq_full = _stats.mcqFullStalls;

        // 1. Commit from the ROB head.
        bool progress = commit(now);

        // 2. Let the MCU make progress and free retired entries.
        if (_mcu) {
            progress |= _mcu->tick(now);
            progress |= _mcu->drainRetired();
        }

        // 3. Issue new micro-ops while the frontend is not redirecting.
        bool mcq_stall = false;
        if (now >= _fetchBlockedUntil) {
            for (unsigned slot = 0; slot < _config.issueWidth; ++slot) {
                if (pos == filled) {
                    u64 want = kPullBlock;
                    if (max_ops) {
                        want = std::min<u64>(
                            want, max_ops - (_nextSeq - first_seq));
                    }
                    filled = (stream_done || want == 0)
                                 ? 0 : stream.nextBatch(block, want);
                    pos = 0;
                    if (filled == 0) {
                        stream_done = true;
                        break;
                    }
                }
                const ir::MicroOp &op = block[pos];
                if (_mcu && _mcu->full() &&
                    (op.isMem() || op.isBoundsOp())) {
                    mcq_stall = true;
                }
                if (!issueOne(op, now))
                    break;
                ++pos;
                progress = true;
            }
        }
        if (mcq_stall)
            _mcqStallCooldownUntil = now + 4;

        // Idle-cycle skip. A cycle that committed, issued and stepped
        // nothing (an HBT resize always steps) is repeated exactly by
        // every cycle up to the next event, so jump there and credit
        // the skipped cycles with this one's stall counts.
        Tick next = now + 1;
        if (!progress) {
            next = nextEvent(now, !stream_done);
            const u64 skipped = next - now - 1;
            _stats.retireDelayed +=
                skipped * (_stats.retireDelayed - retire_delayed);
            _stats.robFullStalls +=
                skipped * (_stats.robFullStalls - rob_full);
            _stats.lsqFullStalls +=
                skipped * (_stats.lsqFullStalls - lsq_full);
            _stats.mcqFullStalls +=
                skipped * (_stats.mcqFullStalls - mcq_full);
            if (mcq_stall)
                _mcqStallCooldownUntil = next - 1 + 4;
        }

        // Cancellation point (shutdown request), once per 1024 cycles
        // crossed: cheap enough to be invisible in the hot-loop
        // profile, frequent enough to preempt within an op-quantum
        // (the issue width bounds ops per cycle).
        if (_config.cancel && (next >> 10) != (now >> 10)) {
            _stats.cycles = next;
            _config.cancel->throwIfCancelled();
        }
        now = next;

        if (stream_done && _robCount == 0 && (!_mcu || _mcu->empty()))
            break;
        // Safety valve against pathological livelock.
        panic_if(now > _stats.cycles + (u64{1} << 40),
                 "core appears to be livelocked");
    }

    _stats.cycles = now;
    return _stats;
}

} // namespace aos::cpu
