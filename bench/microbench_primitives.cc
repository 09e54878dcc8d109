/**
 * @file
 * Google-benchmark microbenchmarks of the persistence primitives.
 *
 * Measures the building blocks whose costs explain Fig. 5 and
 * Table 1: cache-line flushes, non-temporal stores, fences, torn-bit
 * log appends, undo/redo transaction overhead, STM instrumentation,
 * one hash-table operation under each configuration, and the CRC64
 * that binds saved regions and the resume block.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "apps/hash_table.h"
#include "bench/bench_util.h"
#include "pheap/flush.h"
#include "pheap/policies.h"
#include "util/checksum.h"
#include "util/rng.h"

using namespace wsp;
using namespace wsp::apps;
using pmem::PHeap;
using pmem::PHeapConfig;

namespace {

PHeapConfig
heapConfig(bool durable)
{
    PHeapConfig config;
    config.regionSize = 128ull * 1024 * 1024;
    config.durableLogs = durable;
    return config;
}

void
BM_FlushLine(benchmark::State &state)
{
    alignas(64) static uint64_t line[8];
    uint64_t i = 0;
    for (auto _ : state) {
        line[0] = ++i;
        pmem::flushLine(line);
        pmem::storeFence();
    }
}
BENCHMARK(BM_FlushLine);

void
BM_CachedStore(benchmark::State &state)
{
    alignas(64) static uint64_t line[8];
    uint64_t i = 0;
    for (auto _ : state) {
        line[0] = ++i;
        benchmark::DoNotOptimize(line[0]);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_CachedStore);

void
BM_NtStore64(benchmark::State &state)
{
    alignas(64) static uint64_t line[8];
    uint64_t i = 0;
    for (auto _ : state)
        pmem::ntStore64(&line[0], ++i);
    pmem::storeFence();
}
BENCHMARK(BM_NtStore64);

void
BM_StoreFence(benchmark::State &state)
{
    for (auto _ : state)
        pmem::storeFence();
}
BENCHMARK(BM_StoreFence);

void
BM_UndoTxnDurable(benchmark::State &state)
{
    PHeap heap(heapConfig(true));
    auto *word = heap.region().at<uint64_t>(heap.region().header().heapStart);
    uint64_t i = 0;
    for (auto _ : state) {
        pmem::UndoPolicy::run(heap, [&](pmem::UndoPolicy::Tx &tx) {
            tx.write(word, ++i);
        });
    }
}
BENCHMARK(BM_UndoTxnDurable);

void
BM_UndoTxnInCache(benchmark::State &state)
{
    PHeap heap(heapConfig(false));
    auto *word = heap.region().at<uint64_t>(heap.region().header().heapStart);
    uint64_t i = 0;
    for (auto _ : state) {
        pmem::UndoPolicy::run(heap, [&](pmem::UndoPolicy::Tx &tx) {
            tx.write(word, ++i);
        });
    }
}
BENCHMARK(BM_UndoTxnInCache);

void
BM_StmTxnDurable(benchmark::State &state)
{
    PHeap heap(heapConfig(true));
    auto *word = heap.region().at<uint64_t>(heap.region().header().heapStart);
    uint64_t i = 0;
    for (auto _ : state) {
        pmem::StmPolicy::run(heap, [&](pmem::StmPolicy::Tx &tx) {
            tx.write(word, tx.read(word) + ++i);
        });
    }
}
BENCHMARK(BM_StmTxnDurable);

void
BM_StmTxnInCache(benchmark::State &state)
{
    PHeap heap(heapConfig(false));
    auto *word = heap.region().at<uint64_t>(heap.region().header().heapStart);
    uint64_t i = 0;
    for (auto _ : state) {
        pmem::StmPolicy::run(heap, [&](pmem::StmPolicy::Tx &tx) {
            tx.write(word, tx.read(word) + ++i);
        });
    }
}
BENCHMARK(BM_StmTxnInCache);

void
BM_RawAccess(benchmark::State &state)
{
    PHeap heap(heapConfig(false));
    auto *word = heap.region().at<uint64_t>(heap.region().header().heapStart);
    uint64_t i = 0;
    for (auto _ : state) {
        pmem::RawPolicy::run(heap, [&](pmem::RawPolicy::Tx &tx) {
            tx.write(word, tx.read(word) + ++i);
        });
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_RawAccess);

void
BM_TornBitAppendDurable(benchmark::State &state)
{
    PHeap heap(heapConfig(true));
    pmem::TornBitLog log(heap.region(),
                         heap.region().header().undoLogStart,
                         heap.region().header().undoLogBytes,
                         &heap.region().header().undoCheckpointPos,
                         &heap.region().header().undoCheckpointPass,
                         /*durable_appends=*/true);
    uint8_t payload[32] = {};
    for (auto _ : state) {
        log.appendData(64, payload, sizeof(payload));
        log.fence();
    }
}
BENCHMARK(BM_TornBitAppendDurable);

void
BM_TornBitAppendInCache(benchmark::State &state)
{
    PHeap heap(heapConfig(false));
    pmem::TornBitLog log(heap.region(),
                         heap.region().header().undoLogStart,
                         heap.region().header().undoLogBytes,
                         &heap.region().header().undoCheckpointPos,
                         &heap.region().header().undoCheckpointPass,
                         /*durable_appends=*/false);
    uint8_t payload[32] = {};
    for (auto _ : state) {
        log.appendData(64, payload, sizeof(payload));
        log.fence();
    }
}
BENCHMARK(BM_TornBitAppendInCache);

void
BM_TornBitScan(benchmark::State &state)
{
    PHeap heap(heapConfig(true));
    pmem::TornBitLog log(heap.region(),
                         heap.region().header().undoLogStart,
                         heap.region().header().undoLogBytes,
                         &heap.region().header().undoCheckpointPos,
                         &heap.region().header().undoCheckpointPass,
                         true);
    uint8_t payload[32] = {};
    for (int i = 0; i < 1000; ++i)
        log.appendData(64, payload, sizeof(payload));
    for (auto _ : state) {
        auto records = log.scan();
        benchmark::DoNotOptimize(records.size());
    }
}
BENCHMARK(BM_TornBitScan);

/**
 * CRC64 at the sizes the system checksums: a flight-recorder record
 * (56 B, the table path), one fold step (64 B), a salvage region page
 * (4 KiB) and a large region (256 KiB).
 */
void
BM_Crc64(benchmark::State &state)
{
    std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
    Rng rng(9);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng());
    uint64_t crc = 0;
    for (auto _ : state) {
        crc = crc64(bytes, crc);
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Crc64)->Arg(56)->Arg(64)->Arg(4096)->Arg(256 * 1024);

template <typename Policy>
void
hashTableOp(benchmark::State &state, bool durable)
{
    PHeap heap(heapConfig(durable));
    HashTable<Policy> table(heap, 16384);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        table.insert(rng.next(40000) + 1, rng());
    for (auto _ : state) {
        const uint64_t key = rng.next(40000) + 1;
        if (rng.chance(0.5))
            table.insert(key, key);
        else
            table.erase(key);
    }
}

void
BM_HashOp_FoC_STM(benchmark::State &state)
{
    hashTableOp<pmem::StmPolicy>(state, true);
}
BENCHMARK(BM_HashOp_FoC_STM);

void
BM_HashOp_FoC_UL(benchmark::State &state)
{
    hashTableOp<pmem::UndoPolicy>(state, true);
}
BENCHMARK(BM_HashOp_FoC_UL);

void
BM_HashOp_FoF_STM(benchmark::State &state)
{
    hashTableOp<pmem::StmPolicy>(state, false);
}
BENCHMARK(BM_HashOp_FoF_STM);

void
BM_HashOp_FoF_UL(benchmark::State &state)
{
    hashTableOp<pmem::UndoPolicy>(state, false);
}
BENCHMARK(BM_HashOp_FoF_UL);

void
BM_HashOp_FoF(benchmark::State &state)
{
    hashTableOp<pmem::RawPolicy>(state, false);
}
BENCHMARK(BM_HashOp_FoF);

} // namespace

// Hand-rolled BENCHMARK_MAIN(): the standard --trace-out/--metrics-out
// flags are split off for bench::init(); everything else goes to the
// google-benchmark flag parser.
int
main(int argc, char **argv)
{
    std::vector<char *> ours{argv[0]};
    std::vector<char *> theirs{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace-out=", 12) == 0 ||
            std::strncmp(argv[i], "--metrics-out=", 14) == 0)
            ours.push_back(argv[i]);
        else
            theirs.push_back(argv[i]);
    }
    int ours_argc = static_cast<int>(ours.size());
    bench::init("microbench_primitives", ours_argc, ours.data());

    int theirs_argc = static_cast<int>(theirs.size());
    benchmark::Initialize(&theirs_argc, theirs.data());
    if (benchmark::ReportUnrecognizedArguments(theirs_argc,
                                               theirs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bench::writeOutputs();
    return 0;
}
