/**
 * @file
 * Randomized property tests: the conflict detector against a
 * reference model, the workload generator against its structural
 * invariants, whole simulations across random small configurations,
 * and the scalar-vs-fast signature kernel differential across random
 * filter geometries (SignatureFuzz).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/estimate.h"
#include "bloom/signature_ops.h"
#include "htm/conflict_detector.h"
#include "runner/farm.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/random.h"
#include "temp_dir.h"
#include "workloads/generator.h"
#include "workloads/splash2.h"
#include "workloads/stamp.h"

namespace {

/**
 * Reference ownership model: per line, the writer and reader set,
 * maintained with naive exact logic.
 */
struct ReferenceModel {
    struct Line {
        int writer = -1;
        std::set<int> readers;
    };
    std::map<mem::Addr, Line> lines;

    /** Would (tx, line, write) conflict, and with whom? */
    std::set<int>
    conflicts(int tx, mem::Addr line, bool write) const
    {
        std::set<int> result;
        auto it = lines.find(line);
        if (it == lines.end())
            return result;
        if (it->second.writer >= 0 && it->second.writer != tx)
            result.insert(it->second.writer);
        if (write) {
            for (int reader : it->second.readers) {
                if (reader != tx)
                    result.insert(reader);
            }
        }
        return result;
    }

    void
    record(int tx, mem::Addr line, bool write)
    {
        if (write)
            lines[line].writer = tx;
        else
            lines[line].readers.insert(tx);
    }

    void
    remove(int tx)
    {
        for (auto it = lines.begin(); it != lines.end();) {
            if (it->second.writer == tx)
                it->second.writer = -1;
            it->second.readers.erase(tx);
            if (it->second.writer < 0 && it->second.readers.empty())
                it = lines.erase(it);
            else
                ++it;
        }
    }
};

TEST(ConflictDetectorFuzz, MatchesReferenceModel)
{
    constexpr int kTxCount = 6;
    constexpr int kLines = 12;
    constexpr int kOps = 4000;

    htm::ConflictDetector detector;
    ReferenceModel reference;
    std::vector<htm::TxState> txs(kTxCount);
    std::vector<htm::TxState *> active;
    for (int i = 0; i < kTxCount; ++i) {
        txs[i].dTxId = i;
        txs[i].thread = i;
        txs[i].timestamp = static_cast<std::uint64_t>(i) + 1;
        txs[i].active = true;
        active.push_back(&txs[i]);
    }

    sim::Rng rng(2024);
    for (int op = 0; op < kOps; ++op) {
        const int tx = static_cast<int>(rng.below(kTxCount));
        if (rng.chance(0.05)) {
            // Commit/abort: release isolation and start fresh.
            detector.removeTx(txs[tx]);
            reference.remove(tx);
            txs[tx].resetAttempt();
            txs[tx].active = true;
            continue;
        }
        const mem::Addr line = rng.below(kLines);
        const bool write = rng.chance(0.4);
        const auto expected = reference.conflicts(tx, line, write);
        const htm::AccessResult result =
            detector.access(txs[tx], line, write, 0);
        if (expected.empty()) {
            ASSERT_EQ(result.resolution, htm::Resolution::Proceed)
                << "op " << op;
            reference.record(tx, line, write);
        } else {
            ASSERT_NE(result.resolution, htm::Resolution::Proceed)
                << "op " << op;
            // The holders reported must be exactly the reference's.
            std::set<int> reported;
            for (const htm::TxState *holder : result.conflicts)
                reported.insert(holder->dTxId);
            ASSERT_EQ(reported, expected) << "op " << op;
        }
        ASSERT_TRUE(detector.consistentWith(active));
    }
}

TEST(GeneratorFuzz, DescriptorsAlwaysWellFormed)
{
    sim::Rng meta_rng(77);
    for (int trial = 0; trial < 25; ++trial) {
        workloads::SyntheticParams params;
        params.name = "fuzz";
        params.txPerThread = 5;
        const int groups = 1 + static_cast<int>(meta_rng.below(3));
        for (int g = 0; g < groups; ++g)
            params.hotGroupLines.push_back(
                8 + meta_rng.below(512));
        const int sites = 1 + static_cast<int>(meta_rng.below(5));
        for (int s = 0; s < sites; ++s) {
            workloads::SiteParams site;
            site.weight = 0.5 + meta_rng.uniform() * 2.0;
            site.meanAccesses =
                4 + static_cast<int>(meta_rng.below(60));
            site.accessJitter = static_cast<int>(
                meta_rng.below(static_cast<std::uint64_t>(
                    site.meanAccesses)));
            site.similarity = meta_rng.uniform();
            site.writeFraction = meta_rng.uniform();
            if (meta_rng.chance(0.7)) {
                workloads::HotGroupRef ref;
                ref.group =
                    static_cast<int>(meta_rng.below(groups));
                ref.frac = meta_rng.uniform() * 0.8;
                ref.writeFraction = meta_rng.uniform();
                ref.stickyFrac = meta_rng.uniform();
                ref.stickyPoolLines = 1 + meta_rng.below(64);
                site.hotGroups.push_back(ref);
            }
            params.sites.push_back(site);
        }
        workloads::SyntheticWorkload workload(params, 8);
        sim::Rng rng(trial);
        for (int i = 0; i < 40; ++i) {
            const int thread =
                static_cast<int>(rng.below(8));
            const workloads::TxDescriptor desc =
                workload.next(thread, rng);
            ASSERT_GE(desc.sTx, 0);
            ASSERT_LT(desc.sTx, sites);
            ASSERT_FALSE(desc.accesses.empty());
            for (const auto &access : desc.accesses) {
                // Addresses live in a known region.
                ASSERT_GE(access.addr, 0x1'0000'0000ULL);
            }
        }
    }
}

TEST(SimulationFuzz, RandomSmallConfigsComplete)
{
    sim::Rng meta_rng(31337);
    const auto stamp = workloads::stampBenchmarkNames();
    const auto managers = cm::extendedCmKinds();
    for (int trial = 0; trial < 12; ++trial) {
        runner::SimConfig config;
        config.workload = stamp[meta_rng.below(stamp.size())];
        config.cm = managers[meta_rng.below(managers.size())];
        config.numCpus = 1 + static_cast<int>(meta_rng.below(16));
        config.threadsPerCpu =
            1 + static_cast<int>(meta_rng.below(4));
        config.seed = meta_rng.next();
        config.txPerThreadOverride = 4;
        runner::Simulation simulation(config);
        const runner::SimResults r = simulation.run();
        ASSERT_EQ(r.commits,
                  static_cast<std::uint64_t>(config.numThreads())
                      * 4u)
            << r.workload << "/" << r.cm << " cpus="
            << config.numCpus;
        // Accounting identity: buckets + idle == machine capacity.
        ASSERT_EQ(r.breakdown.total(),
                  static_cast<sim::Cycles>(config.numCpus)
                      * r.runtime);
    }
}

TEST(SweepFuzz, RandomMatrixMatchesDirectRunsAndWarmCache)
{
    // A random small evaluation matrix must come back from the sweep
    // engine bit-equal to direct runStamp() calls, independent of
    // worker count and completion order -- and a warm second sweep
    // must reproduce it from the cache without executing anything.
    sim::Rng meta_rng(0xBF675);
    const auto stamp = workloads::stampBenchmarkNames();
    const auto managers = cm::allCmKinds();

    std::vector<runner::SweepCell> cells;
    for (int i = 0; i < 10; ++i) {
        runner::SweepCell cell;
        cell.workload = stamp[meta_rng.below(stamp.size())];
        cell.cm = managers[meta_rng.below(managers.size())];
        cell.options.numCpus =
            1 + static_cast<int>(meta_rng.below(8));
        cell.options.threadsPerCpu =
            1 + static_cast<int>(meta_rng.below(3));
        cell.options.seed = meta_rng.next();
        cell.options.txPerThread = 4;
        cells.push_back(cell);
    }

    const auto digest = [](const runner::SimResults &r) {
        std::ostringstream os;
        runner::writeSweepResults(os, r);
        return os.str();
    };
    std::vector<std::string> expected;
    for (const runner::SweepCell &cell : cells)
        expected.push_back(digest(
            runner::runStamp(cell.workload, cell.cm, cell.options)));

    const std::string cache_dir = testutil::freshTempDir();
    runner::SweepOptions options;
    options.jobs = 4;
    options.cacheDir = cache_dir;

    for (int round = 0; round < 2; ++round) {
        runner::SweepRunner sweep(options);
        const auto results = sweep.run(cells);
        ASSERT_EQ(results.size(), cells.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(digest(results[i].results), expected[i])
                << "round " << round << " cell " << i;
            EXPECT_EQ(results[i].fromCache, round == 1)
                << "round " << round << " cell " << i;
        }
        if (round == 1) {
            EXPECT_EQ(sweep.stats().executed, 0);
            EXPECT_EQ(sweep.stats().cacheHits,
                      static_cast<int>(cells.size()));
        }
    }
    std::filesystem::remove_all(cache_dir);
}

TEST(FarmFuzz, MergedShardRunsMatchDirectSweepForAnyShardCount)
{
    // For a random small matrix, running every shard separately and
    // merging the partial reports must reproduce the direct sweep
    // report byte-for-byte -- for any shard count, including more
    // shards than cells (some partials come back empty).
    sim::Rng meta_rng(0xFA431);
    const auto stamp = workloads::stampBenchmarkNames();
    const auto managers = cm::allCmKinds();

    std::vector<runner::SweepCell> cells;
    for (int i = 0; i < 9; ++i) {
        runner::SweepCell cell;
        cell.workload = stamp[meta_rng.below(stamp.size())];
        cell.cm = managers[meta_rng.below(managers.size())];
        cell.options.numCpus =
            1 + static_cast<int>(meta_rng.below(6));
        cell.options.threadsPerCpu =
            1 + static_cast<int>(meta_rng.below(3));
        cell.options.seed = meta_rng.next();
        cell.options.txPerThread = 4;
        cells.push_back(cell);
    }

    const std::string base_dir = testutil::freshTempDir();
    runner::SweepOptions sweep_options;
    sweep_options.jobs = 4;
    sweep_options.cacheDir = base_dir + "/cache";

    runner::SweepRunner direct(sweep_options);
    direct.run(cells);
    std::ostringstream direct_report;
    direct.writeReport(direct_report, "farm-fuzz");

    for (const int shard_count : {1, 3, 5, 16}) {
        std::vector<std::string> partial_paths;
        for (int shard = 0; shard < shard_count; ++shard) {
            runner::FarmOptions farm_options;
            farm_options.sweep = sweep_options;
            farm_options.shardIndex = shard;
            farm_options.shardCount = shard_count;
            runner::Farm farm(farm_options);
            const auto results = farm.run(cells);
            for (const runner::SweepCellResult &result : results)
                ASSERT_TRUE(result.ok) << result.error;
            const std::string path =
                base_dir + "/partial-" + std::to_string(shard_count)
                + "-" + std::to_string(shard) + ".json";
            std::ofstream os(path);
            farm.writeReport(os, "farm-fuzz");
            partial_paths.push_back(path);
        }
        std::ostringstream merged;
        std::string error;
        ASSERT_TRUE(runner::mergeSweepReports(partial_paths, merged,
                                              &error))
            << error;
        EXPECT_EQ(merged.str(), direct_report.str())
            << "shard count " << shard_count;
    }
    std::filesystem::remove_all(base_dir);
}

TEST(FarmFuzz, SequentialStealWorkersMergeWithEmptyPartials)
{
    // A steal worker arriving at a drained queue claims nothing; its
    // empty partial must still merge cleanly with the worker that
    // took everything, reproducing the direct report.
    std::vector<runner::SweepCell> cells;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        runner::SweepCell cell;
        cell.workload = "Intruder";
        cell.cm = cm::CmKind::BfgtsHw;
        cell.options.numCpus = 2;
        cell.options.threadsPerCpu = 2;
        cell.options.seed = seed;
        cell.options.txPerThread = 4;
        cells.push_back(cell);
    }

    const std::string base_dir = testutil::freshTempDir();

    runner::SweepOptions sweep_options;
    sweep_options.jobs = 8; // one batch swallows the whole queue
    sweep_options.cacheDir = base_dir + "/cache";
    runner::SweepRunner direct(sweep_options);
    direct.run(cells);
    std::ostringstream direct_report;
    direct.writeReport(direct_report, "farm-fuzz");

    std::vector<std::string> partial_paths;
    for (int worker = 0; worker < 2; ++worker) {
        runner::FarmOptions farm_options;
        farm_options.sweep = sweep_options;
        farm_options.stealDir = base_dir + "/queue";
        runner::Farm farm(farm_options);
        farm.run(cells);
        if (worker == 0)
            EXPECT_EQ(farm.claimed().size(), cells.size());
        else
            EXPECT_TRUE(farm.claimed().empty());
        const std::string path =
            base_dir + "/worker-" + std::to_string(worker) + ".json";
        std::ofstream os(path);
        farm.writeReport(os, "farm-fuzz");
        partial_paths.push_back(path);
    }
    std::ostringstream merged;
    std::string error;
    ASSERT_TRUE(
        runner::mergeSweepReports(partial_paths, merged, &error))
        << error;
    EXPECT_EQ(merged.str(), direct_report.str());
    std::filesystem::remove_all(base_dir);
}

/** Compare every SignatureOps kernel on two word ranges. */
void
expectKernelsAgree(const std::vector<std::uint64_t> &a,
                   const std::vector<std::uint64_t> &b,
                   const std::string &what)
{
    const bloom::SignatureOps &scalar = bloom::scalarSignatureOps();
    const bloom::SignatureOps &fast = bloom::simdSignatureOps();
    const std::size_t n = a.size();
    ASSERT_EQ(b.size(), n) << what;

    EXPECT_EQ(scalar.popcountWords(a.data(), n),
              fast.popcountWords(a.data(), n))
        << what;
    EXPECT_EQ(scalar.andAny(a.data(), b.data(), n),
              fast.andAny(a.data(), b.data(), n))
        << what;
    EXPECT_EQ(scalar.andPopcount(a.data(), b.data(), n),
              fast.andPopcount(a.data(), b.data(), n))
        << what;
    const bloom::UnionCounts uc =
        scalar.unionCounts(a.data(), b.data(), n);
    const bloom::UnionCounts uf =
        fast.unionCounts(a.data(), b.data(), n);
    EXPECT_EQ(uc.popA, uf.popA) << what;
    EXPECT_EQ(uc.popB, uf.popB) << what;
    EXPECT_EQ(uc.popUnion, uf.popUnion) << what;

    std::vector<std::uint64_t> or_scalar = a;
    std::vector<std::uint64_t> or_fast = a;
    scalar.orWords(or_scalar.data(), b.data(), n);
    fast.orWords(or_fast.data(), b.data(), n);
    EXPECT_EQ(or_scalar, or_fast) << what;

    std::vector<std::uint64_t> and_scalar = a;
    std::vector<std::uint64_t> and_fast = a;
    scalar.andWords(and_scalar.data(), b.data(), n);
    fast.andWords(and_fast.data(), b.data(), n);
    EXPECT_EQ(and_scalar, and_fast) << what;
}

TEST(SignatureFuzz, KernelsAgreeOnRandomFilterGeometries)
{
    // Random (m, k, partitioned) geometries with random key sets,
    // exercised through real BloomFilter inserts so the word patterns
    // are exactly what the simulator produces. Both kernel families
    // must agree on every op -- the static differential oracle.
    sim::Rng rng(0x516fa22ULL);
    for (int round = 0; round < 60; ++round) {
        const int k = 1 + static_cast<int>(rng.below(8));
        // m: between 1 and 64 words, divisible by k when partitioned.
        const bool partitioned = rng.chance(0.5);
        std::uint64_t m = 64 * (1 + rng.below(64));
        if (partitioned)
            m -= m % static_cast<std::uint64_t>(64 * k);
        if (m == 0)
            m = static_cast<std::uint64_t>(64 * k);

        bloom::BloomConfig config;
        config.numBits = m;
        config.numHashes = k;
        config.partitioned = partitioned;
        config.seed = rng.next();

        bloom::BloomFilter a(config), b(config);
        const int inserts = static_cast<int>(rng.below(300));
        for (int i = 0; i < inserts; ++i) {
            const std::uint64_t key = rng.next();
            if (rng.chance(0.6))
                a.insert(key);
            if (rng.chance(0.6))
                b.insert(key);
        }
        expectKernelsAgree(a.words(), b.words(),
                           "round " + std::to_string(round) + " m="
                               + std::to_string(m)
                               + " k=" + std::to_string(k));
    }
}

TEST(SignatureFuzz, KernelsAgreeOnSaturationAndEmptyEdges)
{
    // Degenerate inputs: all-zero words (empty filter), all-one words
    // (saturated filter), and single-word ranges. Saturation feeds
    // the Eq. 2 t == m branch, empties the t == 0 branch; both must
    // be reached through identical integer popcounts.
    for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{5},
                                std::size_t{32}}) {
        const std::vector<std::uint64_t> zeros(n, 0);
        const std::vector<std::uint64_t> ones(n, ~0ULL);
        expectKernelsAgree(zeros, zeros, "empty/empty");
        expectKernelsAgree(zeros, ones, "empty/saturated");
        expectKernelsAgree(ones, zeros, "saturated/empty");
        expectKernelsAgree(ones, ones, "saturated/saturated");

        // The estimators on those popcounts: 0 at t=0, m at t=m.
        const std::uint64_t m = 64 * n;
        const bloom::SignatureOps &fast = bloom::simdSignatureOps();
        const std::uint64_t t_empty =
            fast.popcountWords(zeros.data(), n);
        const std::uint64_t t_full = fast.popcountWords(ones.data(), n);
        EXPECT_EQ(bloom::estimateSetSize(t_empty, m, 4), 0.0);
        EXPECT_EQ(bloom::estimateSetSize(t_full, m, 4),
                  static_cast<double>(m));
    }
}

} // namespace
