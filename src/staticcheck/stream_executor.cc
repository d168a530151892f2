#include "staticcheck/stream_executor.hh"

#include "bounds/compression.hh"

namespace aos::staticcheck {

namespace {

/** Simulated address of the executor's private bounds table. */
constexpr Addr kExecHbtBase = 0x3000'0000'0000ull;

} // namespace

StreamExecutor::StreamExecutor(pa::PointerLayout layout,
                               unsigned initial_assoc)
    : _layout(layout),
      _hbt(kExecHbtBase, layout.pacSize(), initial_assoc)
{
}

void
StreamExecutor::step(const ir::MicroOp &op)
{
    using ir::OpKind;
    ++_stats.ops;

    switch (op.kind) {
      case OpKind::kBndstr: {
        ++_stats.bndstrs;
        const u64 pac = _layout.pac(op.addr);
        const Addr raw = _layout.strip(op.addr);
        _hbt.insertOrGrow(pac, bounds::compress(raw, op.size));
        break;
      }

      case OpKind::kBndclr: {
        ++_stats.bndclrs;
        // A pointer that is unsigned, or whose bounds are absent,
        // cannot be freed (double free / House of Spirit).
        if (!_layout.signed_(op.addr) ||
            !_hbt.clear(_layout.pac(op.addr), _layout.strip(op.addr))) {
            ++_stats.clearFailures;
        }
        break;
      }

      case OpKind::kLoad:
      case OpKind::kStore: {
        if (!_layout.signed_(op.addr)) {
            ++_stats.uncheckedAccesses;
            break;
        }
        ++_stats.checkedAccesses;
        if (!_hbt.check(_layout.pac(op.addr), _layout.strip(op.addr), 0,
                        nullptr)) {
            ++_stats.boundsViolations;
        }
        break;
      }

      case OpKind::kAutm:
        ++_stats.autms;
        // autm semantics (SIV-A): a nonzero AHC authenticates.
        if (!_layout.signed_(op.addr))
            ++_stats.authFailures;
        break;

      default:
        break;
    }
}

ExecStats
StreamExecutor::run(ir::InstStream &stream)
{
    ir::MicroOp op;
    while (stream.next(op))
        step(op);
    return _stats;
}

ExecStats
StreamExecutor::run(const std::vector<ir::MicroOp> &ops)
{
    for (const ir::MicroOp &op : ops)
        step(op);
    return _stats;
}

} // namespace aos::staticcheck
