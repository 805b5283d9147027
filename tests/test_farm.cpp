/**
 * @file
 * Tests of the distributed sweep farm (src/runner/farm.h): shard
 * partitioning properties, matrix digests, byte-identical merge of
 * static-shard and work-stealing partial reports, lease claiming
 * (fresh, stale, reclaimed), cache-backed crash resume, and the
 * merge validator's rejection of inconsistent partials.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/farm.h"
#include "runner/sweep.h"
#include "sim/host_clock.h"
#include "temp_dir.h"

namespace {

/** Tiny-but-contended cells so every test runs in milliseconds. */
std::vector<runner::SweepCell>
smallCells()
{
    std::vector<runner::SweepCell> cells;
    for (const char *workload : {"Intruder", "Genome"}) {
        for (const cm::CmKind kind :
             {cm::CmKind::Backoff, cm::CmKind::BfgtsHw}) {
            for (const std::uint64_t seed : {1, 2}) {
                runner::SweepCell cell;
                cell.workload = workload;
                cell.cm = kind;
                cell.options.numCpus = 2;
                cell.options.threadsPerCpu = 2;
                cell.options.seed = seed;
                cell.options.txPerThread = 4;
                cells.push_back(cell);
            }
        }
    }
    return cells;
}

/** The direct single-process report of @p cells. */
std::string
directReport(const std::vector<runner::SweepCell> &cells,
             const std::string &cache_dir)
{
    runner::SweepOptions options;
    options.jobs = 4;
    options.cacheDir = cache_dir;
    runner::SweepRunner sweep(options);
    sweep.run(cells);
    std::ostringstream report;
    sweep.writeReport(report, "farm-test");
    return report.str();
}

/** Run one farm worker and write its partial report to @p path. */
runner::SweepStats
runWorker(const runner::FarmOptions &options,
          const std::vector<runner::SweepCell> &cells,
          const std::string &path)
{
    runner::Farm farm(options);
    farm.run(cells);
    std::ofstream os(path);
    farm.writeReport(os, "farm-test");
    return farm.stats();
}

std::string
mergeOrDie(const std::vector<std::string> &paths)
{
    std::ostringstream merged;
    std::string error;
    EXPECT_TRUE(runner::mergeSweepReports(paths, merged, &error))
        << error;
    return merged.str();
}

TEST(FarmShard, PartitionIsDisjointOrderedAndCovering)
{
    for (const std::size_t count : {0u, 1u, 2u, 3u, 7u, 10u, 64u,
                                    101u}) {
        for (const int shards : {1, 2, 3, 4, 5, 8, 16, 33}) {
            std::vector<std::size_t> all;
            std::size_t min_size = count + 1, max_size = 0;
            for (int shard = 0; shard < shards; ++shard) {
                const auto part = runner::Farm::shardIndices(
                    count, shard, shards);
                // Order-preserving within the shard.
                for (std::size_t i = 1; i < part.size(); ++i)
                    ASSERT_LT(part[i - 1], part[i]);
                min_size = std::min(min_size, part.size());
                max_size = std::max(max_size, part.size());
                all.insert(all.end(), part.begin(), part.end());
            }
            // Concatenation in shard order reproduces [0, count)
            // exactly: disjoint, covering, order-preserving.
            std::vector<std::size_t> expected(count);
            std::iota(expected.begin(), expected.end(), 0u);
            ASSERT_EQ(all, expected)
                << count << " cells / " << shards << " shards";
            // Balanced: sizes differ by at most one.
            ASSERT_LE(max_size - min_size, 1u);
        }
    }
    EXPECT_THROW(runner::Farm::shardIndices(10, -1, 3),
                 std::invalid_argument);
    EXPECT_THROW(runner::Farm::shardIndices(10, 3, 3),
                 std::invalid_argument);
    EXPECT_THROW(runner::Farm::shardIndices(10, 0, 0),
                 std::invalid_argument);
}

TEST(FarmShard, MatrixDigestIsStableAndSensitive)
{
    const auto cells = smallCells();
    const std::string digest = runner::Farm::matrixDigest(cells);
    EXPECT_EQ(digest.size(), 16u);
    // Pure function of the cell configurations: recomputation and a
    // copied matrix agree (cellKey() has no hidden state, so this
    // also holds across BFGTS_HASH_SEED values and processes).
    EXPECT_EQ(runner::Farm::matrixDigest(cells), digest);
    std::vector<runner::SweepCell> copy = cells;
    EXPECT_EQ(runner::Farm::matrixDigest(copy), digest);

    // Order, size, and every knob perturb the digest.
    std::swap(copy[0], copy[1]);
    EXPECT_NE(runner::Farm::matrixDigest(copy), digest);
    copy = cells;
    copy.pop_back();
    EXPECT_NE(runner::Farm::matrixDigest(copy), digest);
    copy = cells;
    copy[3].options.seed = 42;
    EXPECT_NE(runner::Farm::matrixDigest(copy), digest);

    // Custom cells cannot be digested or farmed.
    copy = cells;
    copy[0].custom = []() { return runner::SimResults{}; };
    EXPECT_THROW(runner::Farm::matrixDigest(copy),
                 std::invalid_argument);
    runner::Farm farm(runner::FarmOptions{});
    EXPECT_THROW(farm.run(copy), std::invalid_argument);
}

TEST(FarmStatic, ShardsMergeByteIdenticalToDirectSweep)
{
    const auto cells = smallCells();
    const std::string dir = testutil::freshTempDir();
    const std::string direct = directReport(cells, dir + "/cache");

    std::vector<std::string> paths;
    std::size_t claimed_total = 0;
    for (int shard = 0; shard < 3; ++shard) {
        runner::FarmOptions options;
        options.sweep.jobs = 2;
        options.sweep.cacheDir = dir + "/cache";
        options.shardIndex = shard;
        options.shardCount = 3;
        const std::string path =
            dir + "/shard" + std::to_string(shard) + ".json";
        runner::Farm farm(options);
        const auto results = farm.run(cells);
        EXPECT_EQ(results.size(), farm.claimed().size());
        EXPECT_EQ(farm.claimed(),
                  runner::Farm::shardIndices(cells.size(), shard, 3));
        claimed_total += farm.claimed().size();
        std::ofstream os(path);
        farm.writeReport(os, "farm-test");
        paths.push_back(path);
    }
    EXPECT_EQ(claimed_total, cells.size());
    EXPECT_EQ(mergeOrDie(paths), direct);

    // Merge is input-order independent.
    std::vector<std::string> reversed(paths.rbegin(), paths.rend());
    EXPECT_EQ(mergeOrDie(reversed), direct);
    std::filesystem::remove_all(dir);
}

TEST(FarmSteal, ConcurrentWorkersDrainQueueAndMergeByteIdentical)
{
    const auto cells = smallCells();
    const std::string dir = testutil::freshTempDir();
    const std::string direct = directReport(cells, dir + "/cache");

    // Two workers race the same queue in one process (O_EXCL claims
    // are atomic across threads exactly as across processes; the
    // multi-process leg lives in tools/farm_check.py).
    std::vector<std::string> paths{dir + "/w0.json",
                                   dir + "/w1.json"};
    std::vector<std::size_t> claims(2);
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&, w] {
            runner::FarmOptions options;
            options.sweep.jobs = 2;
            options.sweep.cacheDir = dir + "/cache";
            options.stealDir = dir + "/queue";
            runner::Farm farm(options);
            farm.run(cells);
            claims[static_cast<std::size_t>(w)] =
                farm.claimed().size();
            std::ofstream os(paths[static_cast<std::size_t>(w)]);
            farm.writeReport(os, "farm-test");
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    // Every cell ran exactly once across the two workers (the merge
    // validator would reject any overlap or gap).
    EXPECT_EQ(claims[0] + claims[1], cells.size());
    EXPECT_EQ(mergeOrDie(paths), direct);
    std::filesystem::remove_all(dir);
}

TEST(FarmSteal, FreshLeaseIsRespectedAndStaleLeaseReclaimed)
{
    const auto cells = smallCells();
    const std::string dir = testutil::freshTempDir();
    const std::string queue = dir + "/queue";
    std::filesystem::create_directories(queue);

    // A fresh lease on cell 0 (a live worker, mid-cell): the farm
    // must leave it alone and claim everything else.
    { std::ofstream lease(queue + "/c0.lease"); lease << "pid 0\n"; }
    runner::FarmOptions options;
    options.sweep.jobs = 2;
    options.sweep.cacheDir = dir + "/cache";
    options.stealDir = queue;
    options.stealMaxRetries = 1;
    {
        runner::Farm farm(options);
        farm.run(cells);
        ASSERT_EQ(farm.claimed().size(), cells.size() - 1);
        EXPECT_EQ(farm.claimed().front(), 1u);
        // A lone partial with a hole cannot pass the merge's
        // coverage check.
        const std::string path = dir + "/partial.json";
        std::ofstream os(path);
        farm.writeReport(os, "farm-test");
        os.close();
        std::ostringstream merged;
        std::string error;
        EXPECT_FALSE(
            runner::mergeSweepReports({path}, merged, &error));
        EXPECT_NE(error.find("cell 0"), std::string::npos) << error;
    }

    // Backdate the lease past the staleness bound (the worker
    // crashed): a resumed worker reclaims and finishes cell 0.
    std::filesystem::last_write_time(
        queue + "/c0.lease",
        sim::hostFileTimeNow() - std::chrono::hours(2));
    options.stealStaleSec = 3600;
    runner::Farm farm(options);
    farm.run(cells);
    ASSERT_EQ(farm.claimed().size(), 1u);
    EXPECT_EQ(farm.claimed().front(), 0u);
    EXPECT_EQ(farm.stats().executed, 1);
    std::filesystem::remove_all(dir);
}

TEST(FarmSteal, QueueManifestRejectsForeignMatrix)
{
    const auto cells = smallCells();
    const std::string dir = testutil::freshTempDir();
    runner::FarmOptions options;
    options.sweep.cacheDir = dir + "/cache";
    options.stealDir = dir + "/queue";
    runner::Farm farm(options);
    farm.run(cells);

    // A worker arriving with a different matrix must refuse the
    // queue instead of polluting it.
    std::vector<runner::SweepCell> other = cells;
    other[0].options.seed = 777;
    runner::Farm foreign(options);
    EXPECT_THROW(foreign.run(other), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(FarmResume, KilledShardReExecutesOnlyMissingCells)
{
    // Crash-resume contract: a re-run of a shard whose earlier cells
    // already landed in the shared cache executes only the missing
    // ones. (The real kill-a-process leg lives in
    // tools/farm_check.py; here the "partial crash" is simulated by
    // deleting cache entries.)
    const auto cells = smallCells();
    const std::string dir = testutil::freshTempDir();
    runner::FarmOptions options;
    options.sweep.jobs = 2;
    options.sweep.cacheDir = dir + "/cache";
    options.shardIndex = 0;
    options.shardCount = 1;
    {
        runner::Farm farm(options);
        farm.run(cells);
        EXPECT_EQ(farm.stats().executed,
                  static_cast<int>(cells.size()));
    }

    // "Crash" after 3 cells: drop all but three cache entries.
    std::vector<std::filesystem::path> entries;
    for (const auto &entry : std::filesystem::directory_iterator(
             dir + "/cache"))
        entries.push_back(entry.path());
    ASSERT_EQ(entries.size(), cells.size());
    std::sort(entries.begin(), entries.end());
    for (std::size_t i = 3; i < entries.size(); ++i)
        std::filesystem::remove(entries[i]);

    runner::Farm farm(options);
    farm.run(cells);
    EXPECT_EQ(farm.stats().cacheHits, 3);
    EXPECT_EQ(farm.stats().executed,
              static_cast<int>(cells.size()) - 3);
    std::filesystem::remove_all(dir);
}

TEST(FarmMerge, RejectsInconsistentPartials)
{
    const auto cells = smallCells();
    const std::string dir = testutil::freshTempDir();
    const std::string cache = dir + "/cache";

    const auto shard_options = [&](int index, int count) {
        runner::FarmOptions options;
        options.sweep.jobs = 2;
        options.sweep.cacheDir = cache;
        options.shardIndex = index;
        options.shardCount = count;
        return options;
    };
    runWorker(shard_options(0, 2), cells, dir + "/s0.json");
    runWorker(shard_options(1, 2), cells, dir + "/s1.json");

    std::ostringstream merged;
    std::string error;

    // Overlap: the same shard twice.
    EXPECT_FALSE(runner::mergeSweepReports(
        {dir + "/s0.json", dir + "/s0.json"}, merged, &error));
    EXPECT_NE(error.find("already covered"), std::string::npos)
        << error;

    // Gap: a missing shard.
    EXPECT_FALSE(runner::mergeSweepReports({dir + "/s0.json"},
                                           merged, &error));
    EXPECT_NE(error.find("covered by no shard"), std::string::npos)
        << error;

    // Foreign matrix: partials of different sweeps don't mix.
    std::vector<runner::SweepCell> other = cells;
    other[1].options.seed = 999;
    runWorker(shard_options(1, 2), other, dir + "/foreign.json");
    EXPECT_FALSE(runner::mergeSweepReports(
        {dir + "/s0.json", dir + "/foreign.json"}, merged, &error));
    EXPECT_NE(error.find("digest"), std::string::npos) << error;

    // A plain single-machine report has no shard manifest.
    {
        std::ofstream os(dir + "/direct.json");
        os << directReport(cells, cache);
    }
    EXPECT_FALSE(runner::mergeSweepReports({dir + "/direct.json"},
                                           merged, &error));
    EXPECT_NE(error.find("shard manifest"), std::string::npos)
        << error;

    // Unreadable and unparsable inputs fail loudly.
    EXPECT_FALSE(runner::mergeSweepReports({dir + "/missing.json"},
                                           merged, &error));
    {
        std::ofstream os(dir + "/garbage.json");
        os << "not json";
    }
    EXPECT_FALSE(runner::mergeSweepReports({dir + "/garbage.json"},
                                           merged, &error));
    EXPECT_FALSE(runner::mergeSweepReports({}, merged, &error));

    // The happy path still holds after all that rejection.
    EXPECT_EQ(mergeOrDie({dir + "/s0.json", dir + "/s1.json"}),
              directReport(cells, cache));
    std::filesystem::remove_all(dir);
}

TEST(FarmOptionsValidation, ProfileAndQualityAreRejected)
{
    runner::FarmOptions options;
    options.sweep.profile = true;
    runner::Farm profile_farm(options);
    EXPECT_THROW(profile_farm.run(smallCells()),
                 std::invalid_argument);

    options.sweep.profile = false;
    options.sweep.quality = true;
    runner::Farm quality_farm(options);
    EXPECT_THROW(quality_farm.run(smallCells()),
                 std::invalid_argument);
}

} // namespace
