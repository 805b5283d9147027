/**
 * @file
 * Unit tests for the hardware scheduling accelerator: CPU table
 * coherence, Example 1's lookup algorithm, confidence-cache timing
 * and invalidation-refetch behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/predictor.h"
#include "mem/cache.h"
#include "sim/random.h"

namespace {

using cpu::PredictorConfig;
using cpu::PredictorSystem;
using cpu::PredictResult;

class PredictorTest : public ::testing::Test
{
  protected:
    PredictorTest() : ids_(4, 16), predictors_(4, ids_) {}

    /** Confidence reader backed by a small matrix. */
    cpu::ConfidenceFn
    reader()
    {
        return [this](htm::STxId row, htm::STxId col) {
            return conf_[row][col];
        };
    }

    htm::TxIdSpace ids_;
    PredictorSystem predictors_;
    std::uint32_t conf_[4][4] = {};
};

TEST_F(PredictorTest, CpuTablesStartEmpty)
{
    for (int viewer = 0; viewer < 4; ++viewer)
        for (int owner = 0; owner < 4; ++owner)
            EXPECT_EQ(predictors_.cpuTableEntry(viewer, owner),
                      htm::kNoTx);
}

TEST_F(PredictorTest, BroadcastBeginUpdatesAllPredictors)
{
    const htm::DTxId dtx = ids_.make(5, 2);
    predictors_.broadcastBegin(1, dtx);
    for (int viewer = 0; viewer < 4; ++viewer)
        EXPECT_EQ(predictors_.cpuTableEntry(viewer, 1), dtx);
}

TEST_F(PredictorTest, BroadcastEndClearsEntry)
{
    predictors_.broadcastBegin(2, ids_.make(1, 1));
    predictors_.broadcastEnd(2);
    for (int viewer = 0; viewer < 4; ++viewer)
        EXPECT_EQ(predictors_.cpuTableEntry(viewer, 2), htm::kNoTx);
}

TEST_F(PredictorTest, NoRunningTxPredictsNoConflict)
{
    PredictResult result = predictors_.predict(0, 1, reader(), 50);
    EXPECT_FALSE(result.conflictPredicted);
    EXPECT_EQ(result.waitOn, htm::kNoTx);
    EXPECT_GT(result.latency, 0u);
}

TEST_F(PredictorTest, PredictsConflictAboveThreshold)
{
    conf_[1][2] = 100;
    const htm::DTxId running = ids_.make(7, 2);
    predictors_.broadcastBegin(3, running);
    PredictResult result = predictors_.predict(0, 1, reader(), 50);
    EXPECT_TRUE(result.conflictPredicted);
    EXPECT_EQ(result.waitOn, running);
}

TEST_F(PredictorTest, ThresholdIsStrict)
{
    conf_[1][2] = 50;
    predictors_.broadcastBegin(3, ids_.make(7, 2));
    // conf == threshold does NOT trigger (Example 1: conf > threshold).
    EXPECT_FALSE(
        predictors_.predict(0, 1, reader(), 50).conflictPredicted);
    conf_[1][2] = 51;
    EXPECT_TRUE(
        predictors_.predict(0, 1, reader(), 50).conflictPredicted);
}

TEST_F(PredictorTest, OwnCpuIsSkipped)
{
    conf_[1][1] = 255;
    predictors_.broadcastBegin(0, ids_.make(0, 1));
    // Predicting on CPU 0 must not serialize against itself.
    EXPECT_FALSE(
        predictors_.predict(0, 1, reader(), 50).conflictPredicted);
}

TEST_F(PredictorTest, ReturnsFirstConflictingCpu)
{
    conf_[0][1] = 200;
    conf_[0][2] = 200;
    const htm::DTxId first = ids_.make(1, 1);
    const htm::DTxId second = ids_.make(2, 2);
    predictors_.broadcastBegin(1, first);
    predictors_.broadcastBegin(2, second);
    PredictResult result = predictors_.predict(0, 0, reader(), 50);
    EXPECT_TRUE(result.conflictPredicted);
    EXPECT_EQ(result.waitOn, first); // scan order: CPU 1 before 2
}

TEST_F(PredictorTest, LowConfidenceTxIsIgnored)
{
    conf_[0][1] = 10;
    conf_[0][3] = 90;
    predictors_.broadcastBegin(1, ids_.make(1, 1));
    predictors_.broadcastBegin(2, ids_.make(2, 3));
    PredictResult result = predictors_.predict(0, 0, reader(), 50);
    EXPECT_TRUE(result.conflictPredicted);
    EXPECT_EQ(ids_.staticOf(result.waitOn), 3);
}

TEST_F(PredictorTest, FirstLookupMissesThenHits)
{
    conf_[1][2] = 10; // below threshold: full scan happens
    predictors_.broadcastBegin(3, ids_.make(7, 2));
    PredictResult cold = predictors_.predict(0, 1, reader(), 50);
    PredictResult warm = predictors_.predict(0, 1, reader(), 50);
    EXPECT_GT(cold.latency, warm.latency);
    EXPECT_EQ(predictors_.confCache(0).misses().value(), 1u);
    EXPECT_EQ(predictors_.confCache(0).hits().value(), 1u);
}

TEST_F(PredictorTest, ConfidenceWriteInvalidatesButRefetches)
{
    conf_[1][2] = 10;
    predictors_.broadcastBegin(3, ids_.make(7, 2));
    predictors_.onConfidenceWrite(1, 2); // no cache holds the line yet
    EXPECT_EQ(predictors_.confCacheRefetches().value(), 0u);
    predictors_.predict(0, 1, reader(), 50); // warm CPU 0's cache
    predictors_.onConfidenceWrite(1, 2);
    EXPECT_EQ(predictors_.confCacheRefetches().value(), 1u);
    // Thanks to refetch-on-invalidate, the next predict still hits.
    predictors_.predict(0, 1, reader(), 50);
    EXPECT_EQ(predictors_.confCache(0).misses().value(), 1u);
    EXPECT_EQ(predictors_.confCache(0).hits().value(), 1u);

    // Warm CPUs 1 and 2 as well: a write now refetches in all three.
    predictors_.predict(1, 1, reader(), 50);
    predictors_.predict(2, 1, reader(), 50);
    predictors_.onConfidenceWrite(1, 2);
    EXPECT_EQ(predictors_.confCacheRefetches().value(), 1u + 3u);
    // The 4x4 table fits in one 64-byte line, so a write to any
    // entry refetches that line in every cache holding it.
    predictors_.onConfidenceWrite(3, 3);
    EXPECT_EQ(predictors_.confCacheRefetches().value(), 4u + 3u);
    EXPECT_EQ(predictors_.snoopInvalidations().value(), 4u);
}

TEST_F(PredictorTest, LatencyScalesWithEntriesScanned)
{
    // Empty table: latency = trigger + 3 entries * perEntry.
    PredictorConfig config;
    PredictResult result = predictors_.predict(0, 0, reader(), 50);
    EXPECT_EQ(result.latency,
              config.triggerCost + 3 * config.perEntryCost);
}

TEST_F(PredictorTest, PredictionCountersTrack)
{
    conf_[0][1] = 100;
    predictors_.predict(0, 0, reader(), 50);
    predictors_.broadcastBegin(1, ids_.make(1, 1));
    predictors_.predict(0, 0, reader(), 50);
    EXPECT_EQ(predictors_.predictions().value(), 2u);
    EXPECT_EQ(predictors_.conflictsPredicted().value(), 1u);
}

TEST_F(PredictorTest, DistinctCpusHaveDistinctCaches)
{
    conf_[1][2] = 10;
    predictors_.broadcastBegin(3, ids_.make(7, 2));
    predictors_.predict(0, 1, reader(), 50);
    // CPU 1's cache is still cold.
    EXPECT_EQ(predictors_.confCache(1).misses().value(), 0u);
    predictors_.predict(1, 1, reader(), 50);
    EXPECT_EQ(predictors_.confCache(1).misses().value(), 1u);
}

/**
 * Reference model of the confidence caches: one plain cache per CPU
 * running Example 1's walk, and a write snoop that visits every CPU
 * and counts those whose cache holds the line (each refetches it).
 * Mirrors PredictorSystem's table layout: CPU c's table at
 * 0x10000000 + c MB, row-major, 4 bytes per entry.
 */
class EagerSnoopOracle
{
  public:
    EagerSnoopOracle(int num_cpus, const htm::TxIdSpace &ids,
                     const PredictorConfig &config)
        : ids_(ids), cpuTable_(static_cast<std::size_t>(num_cpus),
                               htm::kNoTx)
    {
        for (int cpu = 0; cpu < num_cpus; ++cpu)
            caches_.emplace_back(config.confCache);
    }

    void
    begin(sim::CpuId cpu, htm::DTxId dtx)
    {
        cpuTable_[static_cast<std::size_t>(cpu)] = dtx;
    }

    void
    predict(sim::CpuId self, htm::STxId stx,
            const cpu::ConfidenceFn &read_conf, std::uint32_t threshold)
    {
        for (std::size_t remote = 0; remote < cpuTable_.size();
             ++remote) {
            const htm::DTxId running = cpuTable_[remote];
            if (static_cast<sim::CpuId>(remote) == self
                || running == htm::kNoTx) {
                continue;
            }
            const htm::STxId col = ids_.staticOf(running);
            caches_[static_cast<std::size_t>(self)].access(
                addr(self, stx, col));
            if (read_conf(stx, col) > threshold)
                return;
        }
    }

    void
    write(htm::STxId row, htm::STxId col)
    {
        for (std::size_t cpu = 0; cpu < caches_.size(); ++cpu) {
            if (caches_[cpu].contains(
                    addr(static_cast<sim::CpuId>(cpu), row, col))) {
                ++refetches_;
            }
        }
    }

    const mem::Cache &cache(sim::CpuId cpu) const
    {
        return caches_[static_cast<std::size_t>(cpu)];
    }
    std::uint64_t refetches() const { return refetches_; }

  private:
    mem::Addr
    addr(sim::CpuId cpu, htm::STxId row, htm::STxId col) const
    {
        return 0x10000000ULL + static_cast<mem::Addr>(cpu) * (1ULL << 20)
             + (static_cast<mem::Addr>(row)
                    * static_cast<mem::Addr>(ids_.numStaticTx())
                + static_cast<mem::Addr>(col))
                   * 4;
    }

    const htm::TxIdSpace &ids_;
    std::vector<htm::DTxId> cpuTable_;
    std::vector<mem::Cache> caches_;
    std::uint64_t refetches_ = 0;
};

TEST(PredictorSnoopDifferential, RefetchCountMatchesEagerSnoop)
{
    // 32 sites x 32 sites x 4 bytes = 64 lines of table against a
    // 32-line cache, so fills evict and lines move in and out.
    constexpr int kCpus = 64;
    constexpr int kSites = 32;
    const htm::TxIdSpace ids(kSites, kCpus);
    const PredictorConfig config;
    PredictorSystem predictors(kCpus, ids, config);
    EagerSnoopOracle oracle(kCpus, ids, config);

    std::vector<std::uint32_t> conf(kSites * kSites, 0);
    sim::Rng rng(0x5eed);
    for (std::uint32_t &value : conf)
        value = static_cast<std::uint32_t>(rng.below(256));
    const cpu::ConfidenceFn reader = [&](htm::STxId row,
                                         htm::STxId col) {
        return conf[static_cast<std::size_t>(row * kSites + col)];
    };
    const auto pick = [&](int n) {
        return static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    };

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng.below(10);
        if (op < 4) {
            const sim::CpuId self = pick(kCpus);
            const htm::STxId stx = pick(kSites);
            predictors.predict(self, stx, reader, 230);
            oracle.predict(self, stx, reader, 230);
        } else if (op < 7) {
            const htm::STxId row = pick(kSites);
            const htm::STxId col = pick(kSites);
            conf[static_cast<std::size_t>(row * kSites + col)] =
                static_cast<std::uint32_t>(rng.below(256));
            predictors.onConfidenceWrite(row, col);
            oracle.write(row, col);
        } else {
            const sim::CpuId cpu = pick(kCpus);
            const htm::DTxId dtx =
                rng.chance(0.2) ? htm::kNoTx
                                : ids.make(pick(kCpus), pick(kSites));
            if (dtx == htm::kNoTx)
                predictors.broadcastEnd(cpu);
            else
                predictors.broadcastBegin(cpu, dtx);
            oracle.begin(cpu, dtx);
        }

        for (sim::CpuId cpu = 0; cpu < kCpus; ++cpu) {
            ASSERT_EQ(predictors.confCache(cpu).hits().value(),
                      oracle.cache(cpu).hits().value())
                << "cpu " << cpu << " step " << step;
            ASSERT_EQ(predictors.confCache(cpu).misses().value(),
                      oracle.cache(cpu).misses().value())
                << "cpu " << cpu << " step " << step;
        }
        ASSERT_EQ(predictors.confCacheRefetches().value(),
                  oracle.refetches())
            << "step " << step;
    }
    // The sequence must exercise what the count depends on: more
    // fills than the caches hold (so some CPU evicted) and plenty of
    // refetches.
    std::uint64_t misses = 0;
    for (sim::CpuId cpu = 0; cpu < kCpus; ++cpu)
        misses += oracle.cache(cpu).misses().value();
    EXPECT_GT(misses, static_cast<std::uint64_t>(kCpus) * 32);
    EXPECT_GT(oracle.refetches(), 1000u);
}

} // namespace
