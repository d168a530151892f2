#include "common/chaosio.hh"

#include <algorithm>
#include <new>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"

namespace aos::chaos {

namespace {

/** Per-domain salts keep the schedules statistically independent even
 *  though they share one seed. */
constexpr u64 kDomainSalt[kDomainCount] = {
    0xd15c'fa17'0000'0001ULL, // disk
    0xa110'fa17'0000'0003ULL, // alloc
};

/** splitmix64 finalizer: the same mixer common/random.hh seeds with. */
u64
mix(u64 z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

unsigned
countBits(u32 v)
{
    unsigned n = 0;
    for (; v; v &= v - 1)
        ++n;
    return n;
}

thread_local ChaosEngine *tlsEngine = nullptr;
std::atomic<ChaosEngine *> processEngine{nullptr};

/** Kinds that make an operation fail outright (vs merely degrade). */
constexpr u32 kHardKinds =
    kindBit(FaultKind::kWriteEio) | kindBit(FaultKind::kWriteEnospc) |
    kindBit(FaultKind::kFsyncEio) | kindBit(FaultKind::kRenameFail) |
    kindBit(FaultKind::kOpenFail) | kindBit(FaultKind::kBadAlloc);

} // namespace

const char *
domainName(Domain d)
{
    switch (d) {
      case Domain::kDisk: return "disk";
      case Domain::kAlloc: return "alloc";
    }
    return "unknown";
}

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::kShortWrite: return "short_write";
      case FaultKind::kWriteEio: return "write_eio";
      case FaultKind::kWriteEnospc: return "write_enospc";
      case FaultKind::kFsyncEio: return "fsync_eio";
      case FaultKind::kRenameFail: return "rename_fail";
      case FaultKind::kOpenFail: return "open_fail";
      case FaultKind::kEintr: return "eintr";
      case FaultKind::kBadAlloc: return "bad_alloc";
      case FaultKind::kCount: break;
    }
    return "unknown";
}

bool
parseChaosSpec(const std::string &text, ChaosConfig &out, std::string &error)
{
    // "seed,rate,domains[,cap]" — split on commas first.
    std::vector<std::string> fields;
    size_t pos = 0;
    while (pos <= text.size()) {
        const size_t comma = text.find(',', pos);
        const size_t end = comma == std::string::npos ? text.size() : comma;
        fields.push_back(text.substr(pos, end - pos));
        pos = end + 1;
        if (comma == std::string::npos)
            break;
    }
    if (fields.size() < 3 || fields.size() > 4) {
        error = "expected \"seed,rate,domains[,cap]\"";
        return false;
    }

    ChaosConfig config;
    if (!parseU64(fields[0].c_str(), config.seed)) {
        error = "seed must be a complete non-negative integer";
        return false;
    }
    u64 rate = 0;
    if (!parseU64(fields[1].c_str(), rate)) {
        error = "rate (per mille) must be a complete non-negative integer";
        return false;
    }
    config.ratePerMille = static_cast<u32>(std::min<u64>(rate, 1000));

    // domains: '+'-separated names.
    const std::string &domains = fields[2];
    size_t off = 0;
    while (off <= domains.size()) {
        const size_t plus = domains.find('+', off);
        const size_t end = plus == std::string::npos ? domains.size() : plus;
        const std::string name = domains.substr(off, end - off);
        off = end + 1;
        if (name == "disk") {
            config.domains |= domainBit(Domain::kDisk);
        } else if (name == "alloc") {
            config.domains |= domainBit(Domain::kAlloc);
        } else if (name == "all") {
            config.domains |=
                domainBit(Domain::kDisk) | domainBit(Domain::kAlloc);
        } else {
            error = csprintf("unknown chaos domain \"%s\" (want "
                             "disk|alloc|all, '+'-separated)",
                             name.c_str());
            return false;
        }
        if (plus == std::string::npos)
            break;
    }

    if (fields.size() == 4 &&
        !parseU64(fields[3].c_str(), config.maxPerDomain)) {
        error = "cap must be a complete non-negative integer";
        return false;
    }
    out = config;
    return true;
}

Decision
ChaosPlan::at(Domain domain, u64 opIndex, u32 siteMask) const
{
    Decision decision;
    if (!_config.enabled() || !(_config.domains & domainBit(domain)))
        return decision;
    // Clamp to defined kinds first: a sloppy siteMask (~0u) must never
    // produce a FaultKind past kCount (next() indexes a tally by it).
    u32 mask = siteMask & ((1u << kFaultKindCount) - 1);
    if (_config.kinds)
        mask &= _config.kinds;
    if (!mask)
        return decision;

    const unsigned di = static_cast<unsigned>(domain);
    const u64 h =
        mix(_config.seed ^ kDomainSalt[di] ^
            (opIndex + 1) * 0x9e3779b97f4a7c15ULL);
    if (h % 1000 >= _config.ratePerMille)
        return decision;

    // Pick uniformly among the kinds this site can express; a second
    // mix decorrelates the pick (and the arg) from the fire draw.
    const u64 h2 = mix(h);
    unsigned nth = static_cast<unsigned>(h2 % countBits(mask));
    unsigned bit = 0;
    for (; bit < kFaultKindCount; ++bit) {
        if (!(mask & (1u << bit)))
            continue;
        if (nth == 0)
            break;
        --nth;
    }
    decision.fire = true;
    decision.kind = static_cast<FaultKind>(bit);
    decision.arg = mix(h2);
    return decision;
}

Decision
ChaosEngine::next(Domain domain, u32 siteMask)
{
    const unsigned di = static_cast<unsigned>(domain);
    const u64 index = _ops[di].fetch_add(1, std::memory_order_relaxed);
    const u64 cap = _plan.config().maxPerDomain;
    if (cap && _injected[di].load(std::memory_order_relaxed) >= cap)
        return Decision{};
    Decision decision = _plan.at(domain, index, siteMask);
    if (decision.fire) {
        _injected[di].fetch_add(1, std::memory_order_relaxed);
        _kind[static_cast<unsigned>(decision.kind)].fetch_add(
            1, std::memory_order_relaxed);
    }
    return decision;
}

u64
ChaosEngine::ops(Domain domain) const
{
    return _ops[static_cast<unsigned>(domain)].load(
        std::memory_order_relaxed);
}

u64
ChaosEngine::injected(Domain domain) const
{
    return _injected[static_cast<unsigned>(domain)].load(
        std::memory_order_relaxed);
}

u64
ChaosEngine::injectedKind(FaultKind kind) const
{
    return _kind[static_cast<unsigned>(kind)].load(
        std::memory_order_relaxed);
}

u64
ChaosEngine::injectedTotal() const
{
    u64 total = 0;
    for (unsigned d = 0; d < kDomainCount; ++d)
        total += _injected[d].load(std::memory_order_relaxed);
    return total;
}

u64
ChaosEngine::injectedHard() const
{
    u64 total = 0;
    for (unsigned k = 0; k < kFaultKindCount; ++k) {
        if (kHardKinds & (1u << k))
            total += _kind[k].load(std::memory_order_relaxed);
    }
    return total;
}

ChaosEngine *
engine()
{
    if (tlsEngine)
        return tlsEngine;
    return processEngine.load(std::memory_order_relaxed);
}

void
setProcessEngine(ChaosEngine *e)
{
    processEngine.store(e, std::memory_order_relaxed);
}

void
installChaosFromEnv()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    const std::string spec = envString("AOS_CHAOS");
    if (spec.empty())
        return;
    ChaosConfig config;
    std::string error;
    if (!parseChaosSpec(spec, config, error))
        fatal("AOS_CHAOS \"%s\": %s", spec.c_str(), error.c_str());
    // Deliberately leaked: instrumented sites may run during static
    // destruction (logging flushes, etc.) and must never observe a
    // destroyed engine.
    setProcessEngine(new ChaosEngine(config));
    inform("chaos: seed %llu, %u/1000 per op, domains%s%s%s",
           static_cast<unsigned long long>(config.seed),
           config.ratePerMille,
           config.domains & domainBit(Domain::kDisk) ? " disk" : "",
           config.domains & domainBit(Domain::kAlloc) ? " alloc" : "",
           config.maxPerDomain
               ? csprintf(" (cap %llu/domain)",
                          static_cast<unsigned long long>(
                              config.maxPerDomain)).c_str()
               : "");
}

ChaosScope::ChaosScope(ChaosEngine *e) : _prev(tlsEngine)
{
    tlsEngine = e;
}

ChaosScope::~ChaosScope()
{
    tlsEngine = _prev;
}

void
probeAlloc()
{
    ChaosEngine *e = engine();
    if (!e)
        return;
    if (e->next(Domain::kAlloc, kindBit(FaultKind::kBadAlloc)).fire)
        throw std::bad_alloc();
}

} // namespace aos::chaos
