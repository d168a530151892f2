#include "staticcheck/stream_verifier.hh"

#include <sstream>

namespace aos::staticcheck {

namespace {

std::string
hex(Addr value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

} // namespace

StreamVerifier::StreamVerifier(VerifierOptions options)
    : _options(options)
{
}

void
StreamVerifier::report(RuleId rule, Addr site, std::string message)
{
    ++_totalDiags;
    ++_ruleCounts[rule];

    auto [it, fresh] = _siteCounts.emplace(std::make_pair(rule, site), u64{0});
    ++it->second;
    if (fresh)
        ++_distinctSites[rule];

    u64 &stored = _storedSites[rule];
    if (!fresh || stored >= kMaxPerRuleSites ||
        _diags.size() >= kMaxDiagnostics) {
        ++_suppressed[rule];
        ++_totalSuppressed;
        return;
    }
    ++stored;
    // _opIndex is pre-incremented in observe(); the offending op is the
    // one currently being checked.
    _diags.push_back(Diagnostic{_opIndex - 1, rule, std::move(message)});
}

Addr
StreamVerifier::chunkKey(const ir::MicroOp &op) const
{
    return op.chunkBase != 0 ? op.chunkBase : _options.layout.strip(op.addr);
}

Addr
StreamVerifier::elidedBaseOf(const ir::MicroOp &op) const
{
    using ir::OpKind;
    if (_options.elisionPlan == nullptr)
        return 0;
    Addr base = 0;
    switch (op.kind) {
      case OpKind::kPacma:
      case OpKind::kBndstr:
      case OpKind::kBndclr:
      case OpKind::kAutm:
        base = chunkKey(op);
        break;
      case OpKind::kXpacm:
        base = _options.layout.strip(op.addr);
        break;
      case OpKind::kLoad:
      case OpKind::kStore:
        // Only provenance-tagged accesses attribute to a chunk; the
        // workload's untracked bookkeeping ops never do.
        base = op.chunkBase;
        break;
      default:
        return 0;
    }
    if (base == 0)
        return 0;
    const auto *inst = _instances.find(base);
    return inst && inst->payload.elided ? base : 0;
}

void
StreamVerifier::flushLowering()
{
    if (!_pending)
        return;
    const Lowering &p = *_pending;
    if (p.isFree) {
        if (!p.sawBndclr || !p.sawXpacm || !p.sawResign) {
            report(RuleId::kFreeNotLowered, p.chunk,
                   "kFreeMark for chunk " + hex(p.chunk) + " at op " +
                       std::to_string(p.markIndex) +
                       " missing bndclr/xpacm/re-sign lowering");
        }
    } else {
        if (!p.sawPacma || !p.sawBndstr) {
            report(RuleId::kMallocNotLowered, p.chunk,
                   "kMallocMark for chunk " + hex(p.chunk) + " at op " +
                       std::to_string(p.markIndex) +
                       " missing pacma/bndstr lowering");
        }
    }
    _pending.reset();
}

void
StreamVerifier::checkFields(const ir::MicroOp &op)
{
    using ir::OpKind;
    if (op.isMem()) {
        if (op.addr == 0)
            report(RuleId::kMemMissingAddr, op.addr,
                   std::string(ir::opKindName(op.kind)) +
                       " carries no address");
        if (op.size == 0)
            report(RuleId::kMemMissingSize, op.addr,
                   std::string(ir::opKindName(op.kind)) +
                       " carries no access size");
    }
    if (op.kind == OpKind::kMallocMark &&
        (op.chunkBase == 0 || op.size == 0)) {
        report(RuleId::kAllocMarkMissingFields, op.chunkBase,
               "kMallocMark missing chunk base or size");
    }
    if (op.kind == OpKind::kFreeMark && op.chunkBase == 0) {
        report(RuleId::kAllocMarkMissingFields, op.chunkBase,
               "kFreeMark missing chunk base");
    }
    if (op.isBoundsOp() && !_options.layout.signed_(op.addr)) {
        report(RuleId::kBoundsOpUnsigned, chunkKey(op),
               std::string(ir::opKindName(op.kind)) +
                   " on unsigned pointer " + hex(op.addr));
    }
    if (op.kind == OpKind::kPhaseMark) {
        ++_phaseMarks;
        if (_phaseMarks > 1)
            report(RuleId::kPhaseImbalance, 0,
                   "more than one warmup/measure phase mark");
    }
}

void
StreamVerifier::checkElided(const ir::MicroOp &op)
{
    using ir::OpKind;
    const Addr base = elidedBaseOf(op);
    if (base == 0)
        return;

    switch (op.kind) {
      case OpKind::kPacma:
      case OpKind::kBndstr:
      case OpKind::kBndclr:
      case OpKind::kXpacm:
      case OpKind::kAutm:
        report(RuleId::kElidedResidualInstr, base,
               std::string(ir::opKindName(op.kind)) + " for elided chunk " +
                   hex(base) + " survived AosBoundsElidePass");
        break;

      case OpKind::kLoad:
      case OpKind::kStore: {
        const pa::PointerLayout &layout = _options.layout;
        if (layout.signed_(op.addr)) {
            report(RuleId::kElidedSignedAccess, base,
                   std::string(ir::opKindName(op.kind)) +
                       " to elided chunk " + hex(base) +
                       " still carries signed address " + hex(op.addr));
        }
        const Addr raw = layout.strip(op.addr);
        const analysis::dataflow::ProofObligation *ob =
            _options.elisionPlan->find(base, _instances.find(base)->gen);
        if (ob == nullptr || raw < base || raw - base + op.size > ob->size) {
            report(RuleId::kElidedAccessOutOfPlan, base,
                   std::string(ir::opKindName(op.kind)) + " at " + hex(raw) +
                       " falls outside the proven extent of elided chunk " +
                       hex(base));
        }
        if (op.kind == OpKind::kLoad && op.loadsPointer) {
            report(RuleId::kElidedEscape, base,
                   "pointer load from elided chunk " + hex(base) +
                       " contradicts its non-escaping obligation");
        }
        break;
      }

      default:
        break;
    }
}

void
StreamVerifier::checkDataflow(const ir::MicroOp &op)
{
    using ir::OpKind;
    const pa::PointerLayout &layout = _options.layout;

    // Ops attributed to an elided instance are governed by the
    // SC15..SC18 contracts instead; any residual instrumentation has
    // already been reported there and must not corrupt the dataflow
    // state of live (non-elided) chunks.
    if (elidedBaseOf(op) != 0)
        return;

    switch (op.kind) {
      case OpKind::kPacma:
        if (op.chunkBase != 0)
            _signedPtrs[op.chunkBase] = op.addr;
        break;

      case OpKind::kBndstr: {
        const Addr key = chunkKey(op);
        if (!_liveBounds.insert(key).second) {
            report(RuleId::kDuplicateBndstr, key,
                   "bndstr for chunk " + hex(key) +
                       " whose bounds are already live");
        }
        if (op.chunkBase != 0 &&
            _signedPtrs.find(op.chunkBase) == _signedPtrs.end()) {
            // bndstr stores the signed pointer; remember it even if the
            // pacma was dropped (that omission is reported separately).
            _signedPtrs[op.chunkBase] = op.addr;
        }
        break;
      }

      case OpKind::kBndclr: {
        const Addr key = chunkKey(op);
        if (_liveBounds.erase(key) == 0) {
            report(RuleId::kUnpairedBndclr, key,
                   "bndclr for chunk " + hex(key) +
                       " with no live bounds (double/invalid free)");
        }
        break;
      }

      case OpKind::kLoad:
      case OpKind::kStore: {
        if (!layout.signed_(op.addr))
            break;
        if (op.chunkBase == 0) {
            report(RuleId::kSignedBeforeSign, 0,
                   "signed access " + hex(op.addr) +
                       " with no chunk provenance");
            break;
        }
        auto it = _signedPtrs.find(op.chunkBase);
        if (it == _signedPtrs.end()) {
            report(RuleId::kSignedBeforeSign, op.chunkBase,
                   "signed access to chunk " + hex(op.chunkBase) +
                       " before its pacma");
        } else if (layout.pac(op.addr) != layout.pac(it->second)) {
            report(RuleId::kPacMismatch, op.chunkBase,
                   "signed access " + hex(op.addr) + " carries PAC " +
                       std::to_string(layout.pac(op.addr)) +
                       " but chunk " + hex(op.chunkBase) +
                       " was signed with PAC " +
                       std::to_string(layout.pac(it->second)));
        } else if (_liveBounds.find(op.chunkBase) == _liveBounds.end()) {
            report(RuleId::kSignedAfterClear, op.chunkBase,
                   "signed access to chunk " + hex(op.chunkBase) +
                       " after its bndclr (static use-after-free)");
        }
        break;
      }

      case OpKind::kAutm: {
        const bool follows_load = _prevOp &&
                                  _prevOp->kind == OpKind::kLoad &&
                                  _prevOp->addr == op.addr;
        if (!follows_load) {
            report(RuleId::kAutmOrphan, layout.strip(op.addr),
                   "autm of " + hex(op.addr) +
                       " does not authenticate the preceding load");
        }
        break;
      }

      default:
        break;
    }
}

void
StreamVerifier::checkLowering(const ir::MicroOp &op)
{
    using ir::OpKind;
    switch (op.kind) {
      case OpKind::kMallocMark:
      case OpKind::kFreeMark: {
        flushLowering();
        const auto *inst = _instances.find(op.chunkBase);
        if (inst && inst->payload.elided) {
            // Elided instance: the Fig. 7 sequence is intentionally
            // absent, so no lowering expectation is created.
            break;
        }
        Lowering pending;
        pending.markIndex = _opIndex - 1;
        pending.chunk = op.chunkBase;
        pending.isFree = op.kind == OpKind::kFreeMark;
        _pending = pending;
        break;
      }

      case OpKind::kPacma:
        if (_pending) {
            if (!_pending->isFree && op.chunkBase == _pending->chunk)
                _pending->sawPacma = true;
            else if (_pending->isFree && _pending->sawBndclr &&
                     _pending->sawXpacm)
                _pending->sawResign = true;
        }
        break;

      case OpKind::kBndstr:
        if (_pending && !_pending->isFree &&
            op.chunkBase == _pending->chunk) {
            _pending->sawBndstr = true;
        }
        break;

      case OpKind::kBndclr:
        if (_pending && _pending->isFree &&
            op.chunkBase == _pending->chunk) {
            _pending->sawBndclr = true;
        }
        break;

      case OpKind::kXpacm:
        if (_pending && _pending->isFree && _pending->sawBndclr)
            _pending->sawXpacm = true;
        break;

      default:
        break;
    }
}

void
StreamVerifier::observe(const ir::MicroOp &op)
{
    ++_opIndex;

    if (op.kind == ir::OpKind::kAosMallocIntr ||
        op.kind == ir::OpKind::kAosFreeIntr) {
        report(RuleId::kIntrinsicSurvived, op.chunkBase,
               std::string(ir::opKindName(op.kind)) +
                   " survived the backend pass");
    }

    if (_options.elisionPlan != nullptr)
        _options.elisionPlan->track(_instances, op);

    checkFields(op);
    if (_options.elisionPlan != nullptr)
        checkElided(op);
    checkDataflow(op);
    if (_options.requireAosLowering)
        checkLowering(op);

    _prevOp = op;
}

void
StreamVerifier::finish()
{
    if (_finished)
        return;
    _finished = true;
    if (_options.requireAosLowering)
        flushLowering();

    // One summary line per rule with suppressed repeats; these are
    // bookkeeping, not findings, so _totalDiags is left untouched.
    for (const auto &[rule, count] : _suppressed) {
        if (count == 0)
            continue;
        _diags.push_back(Diagnostic{
            _opIndex, rule,
            "suppressed " + std::to_string(count) +
                " further finding(s) across " +
                std::to_string(_distinctSites[rule]) + " distinct site(s)"});
    }
}

std::vector<Diagnostic>
StreamVerifier::verify(ir::InstStream &stream, const VerifierOptions &options)
{
    StreamVerifier verifier(options);
    ir::MicroOp op;
    while (stream.next(op))
        verifier.observe(op);
    verifier.finish();
    return verifier.diagnostics();
}

std::vector<Diagnostic>
StreamVerifier::verify(const std::vector<ir::MicroOp> &ops,
                       const VerifierOptions &options)
{
    StreamVerifier verifier(options);
    for (const ir::MicroOp &op : ops)
        verifier.observe(op);
    verifier.finish();
    return verifier.diagnostics();
}

} // namespace aos::staticcheck
