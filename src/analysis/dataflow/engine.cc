#include "analysis/dataflow/engine.hh"

#include <iterator>

#include "bounds/compression.hh"

namespace aos::analysis::dataflow {

namespace {

/** Ops pulled per nextBatch() in run(); one cancel poll per block. */
constexpr size_t kBlock = 1024;

} // namespace

size_t
DataflowEngine::coveringIndex(Addr raw) const
{
    // _extents is keyed by base: the candidate is the greatest base
    // <= raw; it covers raw iff raw < its recorded end. Both ends of
    // the map are O(1), and they answer most queries: global accesses
    // lie below every heap chunk, and the allocator's header stores
    // land above the newest chunk while the heap grows.
    if (_extents.empty() || raw < _extents.begin()->first)
        return _summaries.size();
    auto it = std::prev(_extents.end());
    if (raw < it->first)
        it = std::prev(_extents.upper_bound(raw));
    return raw < it->second.first ? it->second.second : _summaries.size();
}

void
DataflowEngine::onMalloc(const ir::MicroOp &op)
{
    const Addr base = op.chunkBase;
    if (base == 0)
        return;
    bool stale = false;
    auto &inst = _instances.onMalloc(base, &stale);
    // A re-allocation at a still-open base means the allocator model
    // and the stream disagree; close the stale instance defensively.
    if (stale) {
        _summaries[inst.payload].escape.onUnknownAlias();
        _extents.erase(base);
    }

    ChunkSummary sum;
    sum.base = base;
    sum.gen = inst.gen;
    sum.size = op.size;
    sum.mallocOp = _opIndex;
    sum.lastOp = _opIndex;

    const size_t idx = _summaries.size();
    _summaries.push_back(sum);
    inst.payload = idx;
    if (sum.size)
        _extents[base] = {base + sum.size, idx};
}

void
DataflowEngine::onFree(const ir::MicroOp &op)
{
    const Addr base = op.chunkBase;
    if (base == 0)
        return;
    bool was_open = false;
    const auto *inst = _instances.onFree(base, &was_open);
    if (inst == nullptr) {
        ++_invalidFrees;
        return;
    }
    // Freeing a base whose instance is already closed is the second
    // free of a double-free pair: it is attributed to the latest
    // instance so the plan rejects it as temporally unsafe.
    ChunkSummary &sum = _summaries[inst->payload];
    ++sum.freeCount;
    sum.lastOp = _opIndex;
    if (was_open) {
        sum.freeOp = _opIndex;
        _extents.erase(base);
    }
}

void
DataflowEngine::onAccess(const ir::MicroOp &op)
{
    const Addr raw = _layout.strip(op.addr);

    if (op.chunkBase == 0) {
        // Unknown provenance: if the access lands inside a live chunk,
        // that chunk is aliased by a pointer the analysis cannot see.
        const size_t idx = coveringIndex(raw);
        if (idx < _summaries.size()) {
            _summaries[idx].escape.onUnknownAlias();
            _summaries[idx].lastOp = _opIndex;
        }
        return;
    }

    const auto *inst = _instances.find(op.chunkBase);
    if (inst == nullptr) {
        ++_orphanAccesses;
        return;
    }
    ChunkSummary *sum = &_summaries[inst->payload];
    if (!inst->open) {
        // Access attributed to a freed instance: use-after-free.
        ++sum->accessesAfterFree;
        sum->lastOp = _opIndex;
        return;
    }

    ++sum->accesses;
    sum->lastOp = _opIndex;
    if (op.loadsPointer) {
        ++sum->pointerLoads;
        sum->escape.onPointerLoaded();
    }

    // Spatial verdict: the access must sit inside the requested object
    // *and* inside the compressed HBT record the ground-truth executor
    // would check against (the latter is what determines whether an
    // elided bndstr/check pair could ever have fired).
    const u64 bytes = op.size ? op.size : 1;
    bool inb = raw >= sum->base;
    if (inb) {
        const u64 off = raw - sum->base;
        sum->range.observe(off, bytes, sum->size);
        inb = off + bytes <= sum->size &&
              bounds::inBounds(bounds::compress(sum->base, sum->size),
                               raw);
    }
    if (!inb)
        sum->allInBounds = false;
}

void
DataflowEngine::onAutm(const ir::MicroOp &op)
{
    if (op.chunkBase == 0)
        return;
    const auto *inst = _instances.find(op.chunkBase);
    if (inst && inst->open) {
        ChunkSummary &sum = _summaries[inst->payload];
        ++sum.autms;
        sum.lastOp = _opIndex;
    }
}

void
DataflowEngine::step(const ir::MicroOp &op)
{
    switch (op.kind) {
      case ir::OpKind::kMallocMark:
        onMalloc(op);
        break;
      case ir::OpKind::kFreeMark:
        onFree(op);
        break;
      case ir::OpKind::kLoad:
      case ir::OpKind::kStore:
        onAccess(op);
        break;
      case ir::OpKind::kAutm:
        onAutm(op);
        break;
      default:
        break;
    }
    ++_opIndex;
}

u64
DataflowEngine::run(ir::InstStream &stream, const CancelToken *cancel)
{
    std::vector<ir::MicroOp> buf(kBlock);
    u64 consumed = 0;
    for (size_t n; (n = stream.nextBatch(buf.data(), kBlock)) != 0;) {
        if (cancel)
            cancel->throwIfCancelled();
        for (size_t i = 0; i < n; ++i)
            step(buf[i]);
        consumed += n;
    }
    return consumed;
}

const ChunkSummary *
DataflowEngine::current(Addr base) const
{
    const auto *inst = _instances.find(base);
    return inst && inst->open ? &_summaries[inst->payload] : nullptr;
}

ProvenanceValue
DataflowEngine::provenanceOf(Addr addr) const
{
    const size_t idx = coveringIndex(_layout.strip(addr));
    if (idx >= _summaries.size())
        return ProvenanceValue::unknown();
    return ProvenanceValue::chunk(_summaries[idx].id());
}

} // namespace aos::analysis::dataflow
