#include "stamp.h"

#include "sim/logging.h"

namespace workloads {

namespace {

/**
 * Delaunay mesh refinement (Kulkarni et al.). Four sites with the
 * densest conflict graph in the suite; site 1 (cavity
 * re-triangulation) is large and jumps around the mesh (similarity
 * 0.04) while site 3 (work-queue management) re-touches the same
 * lines every time (0.90). Very high baseline contention.
 */
SyntheticParams
delaunayParams()
{
    SyntheticParams params;
    params.name = "Delaunay";
    params.txPerThread = 70;
    // Group 0: mesh regions shared by the re-triangulation sites.
    // Group 1: the work queue (tiny structural pool) plus cavity
    // boundary lines shared by sites 1-3.
    params.hotGroupLines = {512, 192};
    SiteParams s0;
    s0.weight = 1.0;
    s0.meanAccesses = 24;
    s0.accessJitter = 6;
    s0.similarity = 0.64;
    s0.workPerAccess = 200;
    s0.nonTxWork = 2500;
    s0.hotGroups = {{.group = 0, .frac = 0.35, .writeFraction = 0.55,
                     .stickyFrac = 0.6, .stickyPoolLines = 224}};
    SiteParams s1;
    s1.weight = 1.0;
    s1.meanAccesses = 40;
    s1.accessJitter = 10;
    s1.similarity = 0.04;
    s1.workPerAccess = 200;
    s1.nonTxWork = 2500;
    s1.hotGroups = {{.group = 0, .frac = 0.2, .writeFraction = 0.6},
                    {.group = 1, .frac = 0.1, .writeFraction = 0.5,
                     .stickyFrac = 0.5, .stickyPoolLines = 24}};
    SiteParams s2;
    s2.weight = 1.0;
    s2.meanAccesses = 24;
    s2.accessJitter = 6;
    s2.similarity = 0.56;
    s2.workPerAccess = 200;
    s2.nonTxWork = 2500;
    s2.hotGroups = {{.group = 0, .frac = 0.22, .writeFraction = 0.55,
                     .stickyFrac = 0.5, .stickyPoolLines = 224},
                    {.group = 1, .frac = 0.1, .writeFraction = 0.5,
                     .stickyFrac = 0.5, .stickyPoolLines = 24}};
    // Site 3: the work queue -- tiny, self-similar, hammered.
    SiteParams s3;
    s3.weight = 3.5;
    s3.meanAccesses = 5;
    s3.accessJitter = 1;
    s3.similarity = 0.90;
    s3.workPerAccess = 15;
    s3.nonTxWork = 220;
    s3.hotGroups = {{.group = 1, .frac = 0.85, .writeFraction = 0.9,
                     .stickyFrac = 0.9, .stickyPoolLines = 2}};
    params.sites = {s0, s1, s2, s3};
    return params;
}

/**
 * Genome sequencing: sparse conflict pattern (hash-table segment
 * matching). High *baseline* contention from bursts on small shared
 * pools, but trivially schedulable -- proactive managers push it to
 * ~1%. Site 3 reads what site 2 writes (asymmetric row of Table 1).
 */
SyntheticParams
genomeParams()
{
    SyntheticParams params;
    params.name = "Genome";
    params.txPerThread = 160;
    params.hotGroupLines = {48, 320, 64}; // {0}, {2,3}, {4}
    // Site 0: duplicate-segment hash inserts -- hot buckets, low
    // similarity (segments land anywhere), the Backoff poison here.
    SiteParams s0;
    s0.weight = 1.5;
    s0.meanAccesses = 6;
    s0.accessJitter = 1;
    s0.similarity = 0.12;
    s0.workPerAccess = 20;
    s0.nonTxWork = 400;
    s0.hotGroups = {{.group = 0, .frac = 0.5, .writeFraction = 0.7,
                     .stickyFrac = 0.3, .stickyPoolLines = 16}};
    SiteParams s1;
    s1.meanAccesses = 14;
    s1.accessJitter = 3;
    s1.similarity = 0.25;
    s1.workPerAccess = 60;
    s1.nonTxWork = 1500;
    // Private only: row 1 of Table 1 has no conflict edges.
    SiteParams s2;
    s2.meanAccesses = 8;
    s2.accessJitter = 2;
    s2.similarity = 0.65;
    s2.workPerAccess = 25;
    s2.nonTxWork = 500;
    s2.weight = 2.0;
    s2.hotGroups = {{.group = 1, .frac = 0.7, .writeFraction = 0.85,
                     .stickyFrac = 0.65, .stickyPoolLines = 4}};
    SiteParams s3;
    s3.meanAccesses = 9;
    s3.accessJitter = 2;
    s3.similarity = 0.74;
    s3.workPerAccess = 60;
    s3.nonTxWork = 1000;
    // Read-only member: conflicts with site 2, never with itself.
    s3.hotGroups = {{.group = 1, .frac = 0.5, .writeFraction = 0.0,
                     .stickyFrac = 0.75, .stickyPoolLines = 4}};
    SiteParams s4;
    s4.meanAccesses = 9;
    s4.accessJitter = 2;
    s4.similarity = 0.29;
    s4.workPerAccess = 40;
    s4.nonTxWork = 800;
    s4.hotGroups = {{.group = 2, .frac = 0.5, .writeFraction = 0.85,
                     .stickyFrac = 0.4, .stickyPoolLines = 8}};
    params.sites = {s0, s1, s2, s3, s4};
    return params;
}

/**
 * K-means clustering: tiny centroid-update transactions. Moderate
 * contention; site 2 reads centroids site 1 writes.
 */
SyntheticParams
kmeansParams()
{
    SyntheticParams params;
    params.name = "Kmeans";
    params.txPerThread = 300;
    params.hotGroupLines = {192, 192}; // {0}, {1,2}
    SiteParams s0;
    s0.meanAccesses = 8;
    s0.accessJitter = 2;
    s0.similarity = 0.38;
    s0.nonTxWork = 450;
    s0.hotGroups = {{.group = 0, .frac = 0.65, .writeFraction = 0.85,
                     .stickyFrac = 0.38, .stickyPoolLines = 6}};
    SiteParams s1;
    s1.meanAccesses = 6;
    s1.accessJitter = 2;
    s1.similarity = 0.67;
    s1.nonTxWork = 450;
    s1.hotGroups = {{.group = 1, .frac = 0.7, .writeFraction = 0.85,
                     .stickyFrac = 0.67, .stickyPoolLines = 5}};
    SiteParams s2;
    s2.meanAccesses = 6;
    s2.accessJitter = 2;
    s2.similarity = 0.68;
    s2.nonTxWork = 450;
    s2.hotGroups = {{.group = 1, .frac = 0.65, .writeFraction = 0.0,
                     .stickyFrac = 0.68, .stickyPoolLines = 5}};
    params.sites = {s0, s1, s2};
    return params;
}

/**
 * Vacation travel-reservation server: one site, B-tree-like tables,
 * moderate footprint, low-moderate contention, low similarity
 * (requests hit random records).
 */
SyntheticParams
vacationParams()
{
    SyntheticParams params;
    params.name = "Vacation";
    params.txPerThread = 150;
    params.hotGroupLines = {320};
    SiteParams s0;
    s0.meanAccesses = 28;
    s0.accessJitter = 8;
    s0.similarity = 0.26;
    s0.workPerAccess = 80;
    s0.nonTxWork = 3000;
    s0.hotGroups = {{.group = 0, .frac = 0.17, .writeFraction = 0.3}};
    params.sites = {s0};
    return params;
}

/**
 * Intruder network-packet inspection: small queue/fragment-map
 * transactions executed back-to-back; dense conflicts, very high
 * baseline contention (enqueue/dequeue on shared queues).
 */
SyntheticParams
intruderParams()
{
    SyntheticParams params;
    params.name = "Intruder";
    params.txPerThread = 260;
    params.hotGroupLines = {64, 256}; // {0}: packet queue, {1}: flow map
    // Site 0: the shared packet queue -- tiny, hammered, near-serial.
    SiteParams s0;
    s0.weight = 3.0;
    s0.meanAccesses = 4;
    s0.accessJitter = 1;
    s0.similarity = 0.67;
    s0.workPerAccess = 10;
    s0.nonTxWork = 180;
    s0.hotGroups = {{.group = 0, .frac = 0.8, .writeFraction = 0.9,
                     .stickyFrac = 0.9, .stickyPoolLines = 2}};
    // Sites 1-2: fragment-map lookups/updates -- parallel body.
    SiteParams s1;
    s1.weight = 1.5;
    s1.meanAccesses = 8;
    s1.accessJitter = 2;
    s1.similarity = 0.40;
    s1.workPerAccess = 30;
    s1.nonTxWork = 300;
    s1.hotGroups = {{.group = 1, .frac = 0.35, .writeFraction = 0.6,
                     .stickyFrac = 0.35, .stickyPoolLines = 96}};
    SiteParams s2;
    s2.weight = 1.5;
    s2.meanAccesses = 8;
    s2.accessJitter = 2;
    s2.similarity = 0.66;
    s2.workPerAccess = 30;
    s2.nonTxWork = 300;
    s2.hotGroups = {{.group = 1, .frac = 0.35, .writeFraction = 0.6,
                     .stickyFrac = 0.65, .stickyPoolLines = 96}};
    params.sites = {s0, s1, s2};
    return params;
}

/**
 * SSCA2 graph kernel: tiny, almost conflict-free adjacency-array
 * appends. The overhead-sensitivity benchmark: any CM cost shows.
 */
SyntheticParams
ssca2Params()
{
    SyntheticParams params;
    params.name = "Ssca2";
    params.txPerThread = 500;
    params.hotGroupLines = {2048, 2048}; // {0}, {2}
    SiteParams s0;
    s0.meanAccesses = 3;
    s0.accessJitter = 1;
    s0.similarity = 0.90;
    s0.nonTxWork = 500;
    s0.hotGroups = {{.group = 0, .frac = 0.3, .writeFraction = 0.5}};
    SiteParams s1;
    s1.meanAccesses = 3;
    s1.accessJitter = 1;
    s1.similarity = 0.90;
    s1.nonTxWork = 500;
    // Private only: row 1 has no edges.
    SiteParams s2;
    s2.meanAccesses = 3;
    s2.accessJitter = 1;
    s2.similarity = 0.57;
    s2.nonTxWork = 500;
    s2.hotGroups = {{.group = 1, .frac = 0.3, .writeFraction = 0.5}};
    params.sites = {s0, s1, s2};
    return params;
}

/**
 * Labyrinth maze routing (grid copy hoisted out of the transaction,
 * as the paper does): very large transactions claiming a path
 * through a shared grid; conflicts when paths cross.
 */
SyntheticParams
labyrinthParams()
{
    SyntheticParams params;
    params.name = "Labyrinth";
    params.txPerThread = 40;
    params.hotGroupLines = {6144, 3072}; // {0}, {1,2}
    SiteParams s0;
    s0.meanAccesses = 180;
    s0.accessJitter = 40;
    s0.similarity = 0.86;
    s0.workPerAccess = 40;
    s0.nonTxWork = 4000;
    s0.hotGroups = {{.group = 0, .frac = 0.06, .writeFraction = 0.4}};
    SiteParams s1;
    s1.meanAccesses = 60;
    s1.accessJitter = 15;
    s1.similarity = 0.45;
    s1.workPerAccess = 40;
    s1.nonTxWork = 3000;
    s1.hotGroups = {{.group = 1, .frac = 0.1, .writeFraction = 0.0}};
    SiteParams s2;
    s2.meanAccesses = 220;
    s2.accessJitter = 40;
    s2.similarity = 0.90;
    s2.workPerAccess = 40;
    s2.nonTxWork = 4000;
    s2.hotGroups = {{.group = 1, .frac = 0.08, .writeFraction = 0.5,
                     .stickyFrac = 0.2, .stickyPoolLines = 32}};
    params.sites = {s0, s1, s2};
    return params;
}

/** One benchmark: its generator and its paper calibration targets. */
struct StampBenchmark {
    const char *name;
    SyntheticParams (*params)();
    StampTargets targets;
};

/** The suite in the paper's order: similarity per site (Table 1),
 *  conflict edges (Table 1), Backoff contention (Table 4). */
const std::vector<StampBenchmark> &
stampSuite()
{
    static const std::vector<StampBenchmark> suite = {
        {"Delaunay", delaunayParams,
         {{0.64, 0.04, 0.56, 0.90},
          {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {1, 3}, {2, 2},
           {2, 3}, {3, 3}},
          0.735}},
        {"Genome", genomeParams,
         {{0.12, 0.25, 0.65, 0.74, 0.29},
          {{0, 0}, {2, 2}, {2, 3}, {4, 4}},
          0.611}},
        {"Kmeans", kmeansParams,
         {{0.38, 0.67, 0.68}, {{0, 0}, {1, 1}, {1, 2}}, 0.205}},
        {"Vacation", vacationParams, {{0.26}, {{0, 0}}, 0.102}},
        {"Intruder", intruderParams,
         {{0.67, 0.40, 0.66}, {{0, 0}, {1, 1}, {1, 2}, {2, 2}}, 0.704}},
        {"Ssca2", ssca2Params,
         {{0.90, 0.90, 0.57}, {{0, 0}, {2, 2}}, 0.001}},
        {"Labyrinth", labyrinthParams,
         {{0.86, 0.45, 0.90}, {{0, 0}, {1, 2}, {2, 2}}, 0.202}},
    };
    return suite;
}

/** The benchmark named @p name (fatal on unknown names). */
const StampBenchmark &
stampBenchmark(const std::string &name)
{
    for (const StampBenchmark &benchmark : stampSuite()) {
        if (benchmark.name == name)
            return benchmark;
    }
    sim_fatal("unknown STAMP benchmark '%s'", name.c_str());
}

} // namespace

std::vector<std::string>
stampBenchmarkNames()
{
    std::vector<std::string> names;
    for (const StampBenchmark &benchmark : stampSuite())
        names.emplace_back(benchmark.name);
    return names;
}

std::unique_ptr<SyntheticWorkload>
makeStampWorkload(const std::string &name, int num_threads)
{
    return std::make_unique<SyntheticWorkload>(
        stampBenchmark(name).params(), num_threads);
}

StampTargets
stampTargets(const std::string &name)
{
    return stampBenchmark(name).targets;
}

} // namespace workloads
