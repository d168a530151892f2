/**
 * @file
 * The full memory hierarchy of paper Table IV.
 *
 * Private L1-I (32 KB/4-way/1-cycle) and L1-D (64 KB/8-way/1-cycle),
 * an optional private L1-B bounds cache (32 KB/4-way/1-cycle) as in
 * SV-F1, a shared L2 (8 MB/16-way/8-cycle) and DRAM at 50 ns (100
 * cycles at the 2 GHz core clock). Bounds accesses route to the L1-B
 * when it is enabled, otherwise to the L1-D (polluting it, which is
 * exactly the Fig. 15 ablation).
 *
 * Network traffic as reported in Fig. 18 is the number of bytes moved
 * between caches and between the LLC and DRAM.
 */

#ifndef AOS_MEMSIM_MEMORY_SYSTEM_HH
#define AOS_MEMSIM_MEMORY_SYSTEM_HH

#include <memory>

#include "memsim/cache.hh"

namespace aos::memsim {

/** Configuration for the whole hierarchy (Table IV defaults). */
struct MemoryConfig
{
    CacheParams l1i{"l1i", 32 * 1024, 4, 64, 1, true};
    CacheParams l1d{"l1d", 64 * 1024, 8, 64, 1, true};
    CacheParams l1b{"l1b", 32 * 1024, 4, 64, 1, false};
    CacheParams l2{"l2", 8 * 1024 * 1024, 16, 64, 8, true};
    Cycles dramLatency = 100; //!< 50 ns at 2 GHz.
    bool useBoundsCache = true;
};

/** Aggregated hierarchy with routing helpers for the core and MCU. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemoryConfig &config = MemoryConfig());

    /** Instruction fetch. */
    Cycles fetchAccess(Addr addr) { return _l1i->access(addr, false); }

    /** Demand data access from the LSU. */
    Cycles
    dataAccess(Addr addr, bool write)
    {
        return _l1d->access(addr, write);
    }

    /** Bounds-metadata access from the MCU (L1-B if enabled). */
    Cycles
    boundsAccess(Addr addr, bool write)
    {
        return _boundsCache->access(addr, write);
    }

    /** Total bytes moved between all cache levels and to DRAM. */
    u64 networkTraffic() const;

    /** DRAM link activity (reads = fills, writes = LLC writebacks). */
    u64 dramAccesses() const { return _dram->accesses(); }
    u64 dramWrites() const { return _dram->writes(); }

    /** Invalidate all cache state. */
    void flushAll();

    const Cache &l1i() const { return *_l1i; }
    const Cache &l1d() const { return *_l1d; }
    const Cache *l1b() const { return _l1bOwned ? _l1b.get() : nullptr; }
    const Cache &l2() const { return *_l2; }
    const MainMemory &dram() const { return *_dram; }
    const MemoryConfig &config() const { return _config; }

  private:
    MemoryConfig _config;
    std::unique_ptr<MainMemory> _dram;
    std::unique_ptr<Cache> _l2;
    std::unique_ptr<Cache> _l1i;
    std::unique_ptr<Cache> _l1d;
    std::unique_ptr<Cache> _l1b;
    bool _l1bOwned = false;
    Cache *_boundsCache = nullptr; // L1-B if enabled, else L1-D
};

} // namespace aos::memsim

#endif // AOS_MEMSIM_MEMORY_SYSTEM_HH
