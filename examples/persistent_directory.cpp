/**
 * @file
 * Persistent-heap programming model: an LDAP-like directory server.
 *
 * Shows the programming-model side of the paper's comparison
 * (section 3.2): the same directory server code runs against
 *
 *  1. a Mnemosyne-style persistent heap (STM + redo log, flush on
 *     commit) that survives a crash through log recovery, and
 *  2. a plain in-memory heap (flush on fail) that would be covered by
 *     WSP instead.
 *
 * A crash is simulated by abandoning the heap file without a clean
 * shutdown and re-opening it; the durable configuration recovers
 * every committed entry.
 *
 * Build & run:  ./build/examples/persistent_directory
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "apps/directory_server.h"
#include "pheap/policies.h"

using namespace wsp;
using namespace wsp::apps;
using pmem::PHeap;
using pmem::PHeapConfig;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    const std::string path = "/tmp/wsp_directory_example.img";
    std::remove(path.c_str());
    constexpr uint64_t kEntries = 20000;

    // --- Mnemosyne configuration: FoC + STM, file-backed ----------------
    pmem::Offset index_header = 0;
    {
        PHeapConfig config;
        config.path = path;
        config.regionSize = 64ull * 1024 * 1024;
        config.durableLogs = true;
        PHeap heap(config);
        DirectoryServer<pmem::StmPolicy> server(heap);
        index_header = server.index().headerOffset();
        pmem::StmPolicy::run(heap, [&](pmem::StmPolicy::Tx &tx) {
            heap.setRootObject(tx, index_header);
        });

        Rng rng(3);
        const auto start = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < kEntries; ++i) {
            if (server.add(renderEntry(randomEntry(rng, i))) !=
                DirectoryResult::Success) {
                std::printf("unexpected add failure at %llu\n",
                            (unsigned long long)i);
                return 1;
            }
        }
        const double elapsed = secondsSince(start);
        std::printf("FoC + STM (Mnemosyne-style): loaded %llu entries "
                    "at %.0f updates/s\n",
                    (unsigned long long)server.entryCount(),
                    kEntries / elapsed);
        // No clean shutdown: this is the crash.
    }

    // --- Crash recovery --------------------------------------------------
    {
        PHeapConfig config;
        config.path = path;
        config.regionSize = 64ull * 1024 * 1024;
        config.durableLogs = true;
        PHeap heap(config);
        std::printf("re-opened after crash: recovered=%s, redo records "
                    "replayed=%zu, undo rolled back=%zu\n",
                    heap.openReport().recovered ? "yes" : "no",
                    heap.openReport().redoRecordsApplied,
                    heap.openReport().undoRecordsApplied);

        // Attach to the index through the heap root and verify.
        AvlTree<pmem::StmPolicy> index(heap, heap.rootObject(), nullptr);
        const bool sound = index.checkInvariants();
        std::printf("directory after recovery: %llu entries, AVL "
                    "invariants %s\n",
                    (unsigned long long)index.size(),
                    sound ? "hold" : "VIOLATED");
        // Every add committed before the crash, so all must survive.
        if (!sound || index.size() != kEntries)
            return 1;
    }

    // --- The WSP alternative ---------------------------------------------
    {
        PHeapConfig config;
        config.regionSize = 64ull * 1024 * 1024;
        config.durableLogs = false; // flush-on-fail: plain memory
        PHeap heap(config);
        DirectoryServer<pmem::RawPolicy> server(heap);
        Rng rng(3);
        const auto start = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < kEntries; ++i)
            server.add(renderEntry(randomEntry(rng, i)));
        const double elapsed = secondsSince(start);
        std::printf("\nWSP (unmodified in-memory code): loaded %llu "
                    "entries at %.0f updates/s\n",
                    (unsigned long long)server.entryCount(),
                    kEntries / elapsed);
        std::printf("with whole-system persistence this heap needs no "
                    "logging, no flushing, and no code changes —\n"
                    "the NVDIMM save at failure time covers it "
                    "(see examples/quickstart).\n");
    }

    std::remove(path.c_str());
    return 0;
}
