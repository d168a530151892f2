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
      case ir::OpKind::kMallocMark:
        if (in.chunkBase != 0) {
            auto &inst = _instances.onMalloc(in.chunkBase);
            inst.payload = {_plan->elided(in.chunkBase, inst.gen), false};
        }
        emit(in);
        return;

      case ir::OpKind::kFreeMark:
        if (in.chunkBase != 0)
            _instances.onFree(in.chunkBase);
        emit(in);
        return;

      case ir::OpKind::kPacma:
        if (in.chunkBase != 0) {
            // Malloc-side signing (carries the chunk base).
            ++_stats.pacmaSeen;
            if (elided(in.chunkBase)) {
                ++_stats.pacmaElided;
                return;
            }
        } else if (in.size == 0) {
            if (Payload *p = freeing(_layout.strip(in.addr))) {
                // Free-side re-sign of an elided chunk's pointer: the
                // last op of the free quadruple ends the elision.
                p->freeing = false;
                p->elided = false;
                ++_stats.pacmaElided;
                return;
            }
        }
        emit(in);
        return;

      case ir::OpKind::kBndstr:
        ++_stats.bndstrSeen;
        if (in.chunkBase != 0 && elided(in.chunkBase)) {
            ++_stats.bndstrElided;
            return;
        }
        emit(in);
        return;

      case ir::OpKind::kBndclr:
        ++_stats.bndclrSeen;
        // Base 0 is never tracked, so it finds no state here.
        if (Payload *p = elided(in.chunkBase)) {
            ++_stats.bndclrElided;
            p->freeing = true;
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
        if (in.chunkBase != 0 && elided(in.chunkBase)) {
            ++_stats.autmElided;
            return;
        }
        emit(in);
        return;

      case ir::OpKind::kLoad:
      case ir::OpKind::kStore:
        if (in.chunkBase != 0 && elided(in.chunkBase) &&
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
