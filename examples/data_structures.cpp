/**
 * @file
 * The paper's Section 3.1 examples, made concrete: a shared FIFO
 * queue (persistent, self-similar conflicts) versus a hash table
 * (transient bucket collisions), run as semantic workloads whose
 * addresses come from live shadow structures.
 *
 * Expect the queue to force serialization (BFGTS learns its high
 * similarity and keeps the edge hot) while the hash map stays
 * parallel under every manager.
 */

#include <cstdio>

#include "runner/experiment.h"

namespace {

void
compare(const char *workload, const char *title)
{
    runner::RunOptions options;
    options.txPerThread = 40;
    std::printf("%s\n", title);
    for (cm::CmKind kind :
         {cm::CmKind::Backoff, cm::CmKind::Ats,
          cm::CmKind::BfgtsHw}) {
        const runner::SimResults r =
            runner::runStamp(workload, kind, options);
        std::printf("  %-10s runtime %8llu  contention %5.1f%%  "
                    "serializations %llu  similarity",
                    r.cm.c_str(),
                    static_cast<unsigned long long>(r.runtime),
                    100.0 * r.contentionRate,
                    static_cast<unsigned long long>(
                        r.serializations));
        for (double sim : r.similarityPerSite)
            std::printf(" %.2f", sim);
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("Section 3.1, live: persistent vs transient "
                "conflicts\n\n");
    compare("FifoQueue",
            "FIFO queue (every op touches the same head/tail lines):");
    compare("HashMap", "Hash map (random bucket collisions):");
    compare("CounterArray",
            "Zipf counter array (hot head, parallel tail):");
    return 0;
}
