/**
 * @file
 * Microbenchmark: heap-allocator model throughput (malloc/free churn
 * across size classes, and the warm-up's carve of a large live set),
 * which bounds Table II replay speed.
 */

#include <cmath>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "alloc/heap_allocator.hh"
#include "common/random.hh"

using namespace aos;
using namespace aos::alloc;

namespace {

void
BM_MallocFreeFastbin(benchmark::State &state)
{
    HeapAllocator heap;
    for (auto _ : state) {
        const Addr p = heap.malloc(48);
        benchmark::DoNotOptimize(p);
        heap.free(p);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_MallocFreeLarge(benchmark::State &state)
{
    HeapAllocator heap;
    for (auto _ : state) {
        const Addr p = heap.malloc(8192);
        benchmark::DoNotOptimize(p);
        heap.free(p);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_ChurnSteadyState(benchmark::State &state)
{
    const u64 live_target = static_cast<u64>(state.range(0));
    HeapAllocator heap;
    Rng rng(1);
    while (heap.liveCount() < live_target)
        heap.malloc(16 + rng.below(1024));
    for (auto _ : state) {
        heap.free(heap.liveChunk(rng.below(heap.liveCount())));
        benchmark::DoNotOptimize(heap.malloc(16 + rng.below(1024)));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_WarmupCarve(benchmark::State &state)
{
    // omnetpp's warm-up: 700k live chunks of log-uniform 32-512 B
    // requests, each carved from the top of a heap whose side tables
    // were sized up front, as SyntheticWorkload sizes them. No rehash
    // runs, so each malloc costs its side-table probes.
    constexpr u64 kLive = 700000;
    Rng rng(1);
    std::vector<u64> sizes(kLive);
    for (u64 &size : sizes) {
        const double req = std::exp(std::log(32.0) +
                                    std::log(16.0) * rng.uniform());
        size = static_cast<u64>(req) & ~u64{7};
    }
    for (auto _ : state) {
        state.PauseTiming();
        auto heap = std::make_unique<HeapAllocator>();
        heap->reserveLive(kLive);
        state.ResumeTiming();
        for (u64 size : sizes)
            benchmark::DoNotOptimize(heap->malloc(size));
        state.PauseTiming();
        heap.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * kLive);
}

} // namespace

BENCHMARK(BM_MallocFreeFastbin);
BENCHMARK(BM_MallocFreeLarge);
BENCHMARK(BM_ChurnSteadyState)->Arg(1000)->Arg(100000)->ArgName("live");
BENCHMARK(BM_WarmupCarve)->Unit(benchmark::kMillisecond);
