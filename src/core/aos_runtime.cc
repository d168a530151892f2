#include "core/aos_runtime.hh"

#include "bounds/compression.hh"
#include "common/logging.hh"

namespace aos::core {

namespace {

/** Modifier tweak separating narrowed sub-object PACs (SVII-F). */
constexpr u64 kNarrowDiscriminator = 0x4e41525257ull; // "NARRW"

} // namespace

const char *
statusName(Status status)
{
    switch (status) {
      case Status::kOk: return "ok";
      case Status::kBoundsViolation: return "bounds-violation";
      case Status::kDoubleFree: return "double-free";
      case Status::kInvalidFree: return "invalid-free";
      case Status::kAuthFailure: return "auth-failure";
      case Status::kOutOfMemory: return "out-of-memory";
    }
    return "?";
}

AosRuntime::AosRuntime(const RuntimeConfig &config)
    : _config(config),
      _pa(pa::PointerLayout(config.pacBits, config.vaBits), config.keySeed),
      _os(config.pacBits, config.initialHbtAssoc, bounds::kSlotsPerWay,
          config.policy)
{
}

Addr
AosRuntime::malloc(u64 size)
{
    // malloc takes a 32-bit size argument (the observation behind the
    // bounds-compression format, SV-D).
    if (size > mask(32))
        return 0;
    const Addr raw = _heap.malloc(size);
    if (raw == 0)
        return 0;
    ++_stats.mallocs;

    // pacma ptr, sp, size ; bndstr ptr, size (Fig. 7a).
    const Addr signed_ptr = _pa.pacma(raw, _config.spModifier, size);
    const u64 pac = _pa.layout().pac(signed_ptr);
    _os.hbt().insertOrGrow(pac, bounds::compress(raw, size),
                           &_stats.hbtResizes);
    return signed_ptr;
}

Status
AosRuntime::reportViolation(Status status, Addr ptr)
{
    mcu::McqEntry entry;
    entry.addr = ptr;
    entry.pac = _pa.layout().pac(ptr);
    mcu::FaultKind kind;
    switch (status) {
      case Status::kBoundsViolation:
        ++_stats.boundsViolations;
        kind = mcu::FaultKind::kBoundsViolation;
        break;
      case Status::kDoubleFree:
        ++_stats.doubleFrees;
        kind = mcu::FaultKind::kClearFailure;
        break;
      case Status::kInvalidFree:
        ++_stats.invalidFrees;
        kind = mcu::FaultKind::kClearFailure;
        break;
      default:
        kind = mcu::FaultKind::kNone;
        break;
    }
    // May throw os::ProcessTerminated under the kTerminate policy.
    _os.handleFault(kind, entry);
    return status;
}

Status
AosRuntime::free(Addr signed_ptr)
{
    // bndclr ptr (Fig. 7b line 1): only valid, signed pointers whose
    // bounds are still present can be freed.
    if (!isSigned(signed_ptr))
        return reportViolation(Status::kInvalidFree, signed_ptr);

    const Addr raw = _pa.xpacm(signed_ptr);
    const u64 pac = _pa.layout().pac(signed_ptr);
    if (!_os.hbt().clear(pac, raw)) {
        // Absent bounds: double free, or a crafted pointer that was
        // never returned by malloc (House of Spirit, Fig. 1).
        const bool known = _heap.live(raw);
        return reportViolation(
            known ? Status::kInvalidFree : Status::kDoubleFree,
            signed_ptr);
    }

    // xpacm + free(): the allocator may legitimately touch neighbour
    // metadata with the stripped pointer.
    const auto result = _heap.free(raw);
    if (result != alloc::FreeResult::kOk) {
        // The HBT said the chunk was live; the allocator disagreeing
        // means metadata corruption — surface it.
        return reportViolation(Status::kInvalidFree, signed_ptr);
    }
    ++_stats.frees;

    // pacma ptr, sp, xzr: leave the dangling pointer signed (locked).
    (void)_pa.pacma(raw, _config.spModifier, 0);
    return Status::kOk;
}

Status
AosRuntime::check(Addr ptr)
{
    if (!isSigned(ptr)) {
        ++_stats.uncheckedAccesses;
        return Status::kOk;
    }
    ++_stats.checkedAccesses;
    const Addr raw = _pa.xpacm(ptr);
    const u64 pac = _pa.layout().pac(ptr);
    if (_os.hbt().check(pac, raw, 0, nullptr))
        return Status::kOk;
    return reportViolation(Status::kBoundsViolation, ptr);
}

Status
AosRuntime::load(Addr ptr)
{
    return check(ptr);
}

Status
AosRuntime::store(Addr ptr)
{
    return check(ptr);
}

Status
AosRuntime::checkRange(Addr ptr, u64 len)
{
    if (len == 0)
        return Status::kOk;
    const Status first = check(ptr);
    if (first != Status::kOk)
        return first;
    return len > 1 ? check(ptr + len - 1) : first;
}

Status
AosRuntime::read64(Addr ptr, u64 *out)
{
    const Status status = check(ptr);
    if (status != Status::kOk) {
        // Precise exceptions: the architectural read never happens, so
        // nothing leaks into *out.
        return status;
    }
    *out = _data.read64(_pa.xpacm(ptr));
    return Status::kOk;
}

Status
AosRuntime::write64(Addr ptr, u64 value)
{
    const Status status = check(ptr);
    if (status != Status::kOk)
        return status; // memory stays untouched
    _data.write64(_pa.xpacm(ptr), value);
    return Status::kOk;
}

Status
AosRuntime::authenticate(Addr ptr) const
{
    return _pa.autm(ptr) == pa::AuthResult::kPass ? Status::kOk
                                                  : Status::kAuthFailure;
}

Addr
AosRuntime::protectStack(Addr frame_addr, u64 size)
{
    // Stack objects use the B-family key (pacmb) so a leaked heap
    // signing oracle cannot forge stack pointers, mirroring the A/B
    // key split of Armv8.3-A.
    const Addr raw = _pa.layout().strip(frame_addr) & ~u64{15};
    if (size == 0 || size > mask(32))
        return 0;
    const Addr signed_ptr = _pa.pacmb(raw, _config.spModifier, size);
    const u64 pac = _pa.layout().pac(signed_ptr);
    _os.hbt().insertOrGrow(pac, bounds::compress(raw, size),
                           &_stats.hbtResizes);
    ++_stats.stackProtects;
    return signed_ptr;
}

Status
AosRuntime::unprotectStack(Addr signed_ptr)
{
    if (!isSigned(signed_ptr))
        return reportViolation(Status::kInvalidFree, signed_ptr);
    const Addr raw = _pa.xpacm(signed_ptr);
    const u64 pac = _pa.layout().pac(signed_ptr);
    if (!_os.hbt().clear(pac, raw))
        return reportViolation(Status::kDoubleFree, signed_ptr);
    return Status::kOk;
}

Addr
AosRuntime::narrow(Addr signed_parent, u64 offset, u64 len)
{
    // The sub-object gets its own signed pointer and bounds record.
    // Its base must keep malloc's 16-byte alignment for the
    // compressed-bounds format, so offsets are truncated down.
    if (!isSigned(signed_parent) || len == 0)
        return 0;
    const Addr parent = _pa.xpacm(signed_parent);
    const Addr field = (parent + offset) & ~u64{15};
    const u64 span = len + ((parent + offset) - field);
    // The field must itself be in bounds of the parent.
    if (checkRange(signed_parent + offset, len) != Status::kOk)
        return 0;
    // A dedicated modifier keeps the sub-object's PAC distinct from
    // the parent's even when the field sits at offset 0 (same base
    // address), so the narrowed row holds only the narrowed bounds.
    const Addr signed_field =
        _pa.pacma(field, _config.spModifier ^ kNarrowDiscriminator,
                  span);
    const u64 pac = _pa.layout().pac(signed_field);
    _os.hbt().insertOrGrow(pac, bounds::compress(field, span),
                           &_stats.hbtResizes);
    ++_stats.narrows;
    return signed_field;
}

Status
AosRuntime::widen(Addr narrowed_ptr)
{
    if (!isSigned(narrowed_ptr))
        return reportViolation(Status::kInvalidFree, narrowed_ptr);
    const Addr raw = _pa.xpacm(narrowed_ptr);
    const u64 pac = _pa.layout().pac(narrowed_ptr);
    if (!_os.hbt().clear(pac, raw))
        return reportViolation(Status::kDoubleFree, narrowed_ptr);
    return Status::kOk;
}

ViolationClass
AosRuntime::classify(Addr ptr) const
{
    const Addr raw = _pa.xpacm(ptr);
    // Inside some currently live chunk -> spatial (crossed into a
    // neighbouring object); otherwise, if within the ever-carved heap,
    // it is a temporal error (freed object).
    const u64 live = _heap.liveCount();
    for (u64 i = 0; i < live; ++i) {
        const Addr base = _heap.liveChunk(i);
        if (_heap.inBounds(base, raw))
            return ViolationClass::kSpatial;
    }
    if (raw >= _heap.heapBase() && raw < _heap.heapTop())
        return ViolationClass::kTemporal;
    return ViolationClass::kSpatial;
}

} // namespace aos::core
