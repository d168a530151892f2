#include "compiler/aos_bounds_elide_pass.hh"

namespace aos::compiler {

void
AosBoundsElidePass::transform(const ir::MicroOp &in)
{
    if (_plan == nullptr) {
        emit(in);
        return;
    }

    switch (in.kind) {
      case ir::OpKind::kMallocMark: {
        // Generation bookkeeping must mirror the DataflowEngine's so
        // plan verdicts attach to the same instances.
        if (in.chunkBase != 0) {
            BaseState &st = _bases[in.chunkBase];
            st.freeing = false;
            st.elidedOpen = _plan->elided(in.chunkBase, ++st.gen);
        }
        emit(in);
        return;
      }

      case ir::OpKind::kPacma:
        if (in.chunkBase != 0) {
            // Malloc-side signing (carries the chunk base).
            ++_stats.pacmaSeen;
            if (elidedOpen(in.chunkBase)) {
                ++_stats.pacmaElided;
                return;
            }
        } else if (in.size == 0) {
            if (BaseState *st = freeing(_layout.strip(in.addr))) {
                // Free-side re-sign of an elided chunk's pointer: the
                // last op of the free quadruple; the instance is
                // closed.
                st->freeing = false;
                st->elidedOpen = false;
                ++_stats.pacmaElided;
                return;
            }
        }
        emit(in);
        return;

      case ir::OpKind::kBndstr:
        ++_stats.bndstrSeen;
        if (in.chunkBase != 0 && elidedOpen(in.chunkBase)) {
            ++_stats.bndstrElided;
            return;
        }
        emit(in);
        return;

      case ir::OpKind::kBndclr:
        ++_stats.bndclrSeen;
        // Base 0 is never tracked, so it finds no state here.
        if (BaseState *st = elidedOpen(in.chunkBase)) {
            ++_stats.bndclrElided;
            st->freeing = true;
            return;
        }
        emit(in);
        return;

      case ir::OpKind::kXpacm:
        if (freeing(_layout.strip(in.addr))) {
            ++_stats.xpacmElided;
            return;
        }
        emit(in);
        return;

      case ir::OpKind::kAutm:
        if (in.chunkBase != 0 && elidedOpen(in.chunkBase)) {
            ++_stats.autmElided;
            return;
        }
        emit(in);
        return;

      case ir::OpKind::kLoad:
      case ir::OpKind::kStore:
        if (in.chunkBase != 0 && elidedOpen(in.chunkBase) &&
            _layout.signed_(in.addr)) {
            ir::MicroOp out = in;
            out.addr = _layout.strip(in.addr);
            ++_stats.accessesStripped;
            emit(out);
            return;
        }
        emit(in);
        return;

      default:
        emit(in);
        return;
    }
}

} // namespace aos::compiler
