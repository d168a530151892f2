/**
 * @file
 * Microbenchmark: TAGE resolve (predict + train) throughput, which
 * bounds the timing simulator's own speed on branch-heavy workloads.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "cpu/tage.hh"

using namespace aos;
using namespace aos::cpu;

namespace {

void
BM_TageResolve(benchmark::State &state)
{
    Tage tage;
    Rng rng(1);
    const unsigned branches = static_cast<unsigned>(state.range(0));
    std::vector<double> bias;
    for (unsigned b = 0; b < branches; ++b)
        bias.push_back(rng.uniform());
    for (auto _ : state) {
        const u64 b = rng.below(branches);
        const Addr pc = 0x400000 + b * 4;
        const bool taken = rng.chance(bias[b]);
        benchmark::DoNotOptimize(tage.resolve(pc, taken));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["mispredict_rate"] = tage.stats().mispredictRate();
}

} // namespace

BENCHMARK(BM_TageResolve)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->ArgName("branches");
