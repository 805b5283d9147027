/**
 * @file
 * Tests for the semantic data-structure workloads: shadow-structure
 * consistency, the access shapes each operation emits, and full-run
 * behaviour under the simulator.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "runner/experiment.h"
#include "workloads/structures.h"

namespace {

using workloads::CounterArrayWorkload;
using workloads::FifoQueueWorkload;
using workloads::HashMapWorkload;

TEST(HashMap, OperationsEmitBucketThenChainThenWrites)
{
    HashMapWorkload workload(HashMapWorkload::Config{}, 4);
    sim::Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const workloads::TxDescriptor desc = workload.next(0, rng);
        ASSERT_FALSE(desc.accesses.empty());
        // First access is always the bucket-head read.
        EXPECT_FALSE(desc.accesses.front().write);
        ASSERT_GE(desc.sTx, 0);
        ASSERT_LT(desc.sTx, 3);
        if (desc.sTx == 1) {
            // Lookups never write.
            for (const auto &access : desc.accesses)
                EXPECT_FALSE(access.write);
        }
        if (desc.sTx == 0) {
            // Inserts end with the shared element-count write.
            EXPECT_TRUE(desc.accesses.back().write);
        }
    }
}

TEST(HashMap, ShadowSizeTracksInsertsAndErases)
{
    HashMapWorkload::Config config;
    config.insertFrac = 1.0; // inserts only
    config.lookupFrac = 0.0;
    HashMapWorkload workload(config, 1);
    sim::Rng rng(2);
    for (int i = 0; i < 20; ++i)
        workload.next(0, rng);
    EXPECT_GT(workload.size(), 0u);
}

TEST(HashMap, ChainWalksStayBounded)
{
    HashMapWorkload::Config config;
    config.buckets = 2; // force long chains
    config.insertFrac = 1.0;
    config.lookupFrac = 0.0;
    HashMapWorkload workload(config, 1);
    sim::Rng rng(3);
    for (int i = 0; i < 300; ++i) {
        const auto desc = workload.next(0, rng);
        EXPECT_LE(desc.accesses.size(), 12u); // bounded chain + writes
    }
}

TEST(FifoQueue, AlternatesAndBalances)
{
    FifoQueueWorkload workload(FifoQueueWorkload::Config{}, 4);
    sim::Rng rng(4);
    for (int i = 0; i < 500; ++i) {
        const auto desc = workload.next(0, rng);
        ASSERT_GE(desc.sTx, 0);
        ASSERT_LT(desc.sTx, 2);
        // Both control lines are read up front.
        EXPECT_FALSE(desc.accesses[0].write);
        EXPECT_FALSE(desc.accesses[1].write);
        // Exactly one control line is written (tail or head).
        EXPECT_TRUE(desc.accesses.back().write);
        ASSERT_LE(workload.occupancy(),
                  FifoQueueWorkload::Config{}.capacity);
    }
}

TEST(FifoQueue, EveryOperationTouchesTheSameControlLines)
{
    FifoQueueWorkload workload(FifoQueueWorkload::Config{}, 2);
    sim::Rng rng(5);
    const auto first = workload.next(0, rng);
    const auto second = workload.next(1, rng);
    // The first two (control) reads are identical addresses -- the
    // persistent-conflict structure of the paper's queue example.
    EXPECT_EQ(first.accesses[0].addr, second.accesses[0].addr);
    EXPECT_EQ(first.accesses[1].addr, second.accesses[1].addr);
}

TEST(CounterArray, ZipfSkewsTowardTheHead)
{
    CounterArrayWorkload::Config config;
    config.counters = 1024;
    config.skew = 1.2;
    CounterArrayWorkload workload(config, 1);
    sim::Rng rng(6);
    int head_hits = 0, total = 0;
    for (int i = 0; i < 400; ++i) {
        const auto desc = workload.next(0, rng);
        for (const auto &access : desc.accesses) {
            if (access.write) {
                ++total;
                // Counter index from the line offset.
                const auto index =
                    (access.addr & 0x0FFF'FFFFULL) / mem::kLineBytes;
                head_hits += index < 16 ? 1 : 0;
            }
        }
    }
    // With skew 1.2 the top-16 counters take a large share.
    EXPECT_GT(static_cast<double>(head_hits) / total, 0.3);
}

TEST(CounterArray, ReadEarlyWriteLate)
{
    CounterArrayWorkload workload(CounterArrayWorkload::Config{}, 1);
    sim::Rng rng(7);
    const auto desc = workload.next(0, rng);
    const std::size_t half = desc.accesses.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        EXPECT_FALSE(desc.accesses[i].write);
    for (std::size_t i = half; i < desc.accesses.size(); ++i)
        EXPECT_TRUE(desc.accesses[i].write);
}

/** Full-run behaviour: the queue serializes, the hash map scales. */
TEST(Structures, QueueIsSerialHashMapIsParallel)
{
    runner::RunOptions options;
    options.txPerThread = 15;
    const auto queue =
        runner::runStamp("FifoQueue", cm::CmKind::Backoff, options);
    const auto map =
        runner::runStamp("HashMap", cm::CmKind::Backoff, options);
    EXPECT_EQ(queue.commits, 64u * 15u);
    EXPECT_EQ(map.commits, 64u * 15u);
    // The single shared queue contends far harder than the table.
    EXPECT_GT(queue.contentionRate, map.contentionRate);
}

TEST(Structures, BfgtsTamesTheQueue)
{
    runner::RunOptions options;
    options.txPerThread = 25;
    const auto backoff =
        runner::runStamp("FifoQueue", cm::CmKind::Backoff, options);
    const auto bfgts =
        runner::runStamp("FifoQueue", cm::CmKind::BfgtsHw, options);
    EXPECT_LT(bfgts.contentionRate, backoff.contentionRate);
}

} // namespace
