/**
 * @file
 * Unit tests for the deterministic event queue, driven through a
 * recording event target.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "sim/event_queue.h"

namespace {

using sim::EventQueue;
using sim::Tick;

/** Records each fired (arg, tick); args in @c stale are not live. */
class Recorder final : public sim::EventTarget
{
  public:
    explicit Recorder(EventQueue &q) : q_(q) {}

    void
    fire(std::uint64_t arg) override
    {
        args.push_back(arg);
        ticks.push_back(q_.curTick());
        if (onFire)
            onFire(arg);
    }

    bool live(std::uint64_t arg) const override
    {
        return stale.count(arg) == 0;
    }

    std::vector<std::uint64_t> args;
    std::vector<Tick> ticks;
    std::set<std::uint64_t> stale;
    /** Runs after each record; may schedule more events. */
    std::function<void(std::uint64_t)> onFire;

  private:
    EventQueue &q_;
};

using Args = std::vector<std::uint64_t>;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ExecutesEventsInTickOrder)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(30, &rec, 3);
    q.schedule(10, &rec, 1);
    q.schedule(20, &rec, 2);
    q.run();
    EXPECT_EQ(rec.args, (Args{1, 2, 3}));
    EXPECT_EQ(rec.ticks, (std::vector<Tick>{10, 20, 30}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickEventsFireInScheduleOrder)
{
    EventQueue q;
    Recorder rec(q);
    for (std::uint64_t i = 0; i < 10; ++i)
        q.schedule(5, &rec, i);
    q.run();
    EXPECT_EQ(rec.args, (Args{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, SameTickOrderHoldsAcrossTargets)
{
    EventQueue q;
    std::vector<int> order;
    Recorder a(q);
    Recorder b(q);
    a.onFire = [&](std::uint64_t) { order.push_back(1); };
    b.onFire = [&](std::uint64_t) { order.push_back(2); };
    q.schedule(5, &b);
    q.schedule(5, &a);
    q.schedule(5, &b);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue q;
    Recorder rec(q);
    rec.onFire = [&](std::uint64_t arg) {
        if (arg == 0)
            q.scheduleIn(50, &rec, 1);
    };
    q.schedule(100, &rec, 0);
    q.run();
    EXPECT_EQ(rec.args, (Args{0, 1}));
    EXPECT_EQ(rec.ticks.back(), 150u);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    Recorder rec(q);
    rec.onFire = [&](std::uint64_t arg) {
        if (arg + 1 < 5)
            q.scheduleIn(1, &rec, arg + 1);
    };
    q.schedule(0, &rec, 0);
    q.run();
    EXPECT_EQ(rec.args, (Args{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.curTick(), 4u);
}

TEST(EventQueue, StaleNodeDoesNotFire)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(10, &rec, 7);
    rec.stale.insert(7);
    q.run();
    EXPECT_TRUE(rec.args.empty());
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledEventDoesNotBlockLaterOnes)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(10, &rec, 1);
    q.schedule(10, &rec, 2);
    rec.stale.insert(1);
    q.run();
    EXPECT_EQ(rec.args, (Args{2}));
    EXPECT_EQ(rec.ticks, (std::vector<Tick>{10}));
}

TEST(EventQueue, StaleNodeIsNotCountedByRun)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(10, &rec, 1);
    q.schedule(20, &rec, 2);
    q.schedule(30, &rec, 3);
    rec.stale.insert(2);
    // A stale node is pending until it surfaces...
    EXPECT_EQ(q.size(), 3u);
    // ...and then dropped without being counted as executed.
    EXPECT_EQ(q.run(), 2u);
    EXPECT_EQ(rec.args, (Args{1, 3}));
}

TEST(EventQueue, StaleNodeDoesNotMoveCurTick)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(10, &rec, 1);
    q.schedule(50, &rec, 2);
    rec.stale.insert(2);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.curTick(), 10u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LivenessIsAskedWhenTheNodeSurfaces)
{
    EventQueue q;
    Recorder rec(q);
    // The first event supersedes the second one while it is queued,
    // the way an abort supersedes a worker's in-flight step.
    rec.onFire = [&](std::uint64_t arg) {
        if (arg == 1)
            rec.stale.insert(2);
    };
    q.schedule(10, &rec, 1);
    q.schedule(20, &rec, 2);
    q.schedule(30, &rec, 3);
    EXPECT_EQ(q.run(), 2u);
    EXPECT_EQ(rec.args, (Args{1, 3}));
}

TEST(EventQueue, RunStopsAtMaxTick)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(10, &rec, 1);
    q.schedule(20, &rec, 2);
    q.schedule(30, &rec, 3);
    std::uint64_t executed = q.run(20);
    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(rec.args, (Args{1, 2}));
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(rec.args, (Args{1, 2, 3}));
}

TEST(EventQueue, RunReturnsExecutedCount)
{
    EventQueue q;
    Recorder rec(q);
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i), &rec);
    EXPECT_EQ(q.run(), 7u);
}

TEST(EventQueue, EventAtCurrentTickRunsImmediately)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(10, &rec, 1);
    q.run();
    q.schedule(10, &rec, 2);
    q.run();
    EXPECT_EQ(rec.args, (Args{1, 2}));
    EXPECT_EQ(q.curTick(), 10u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    Recorder rec(q);
    q.schedule(10, &rec);
    q.run();
    EXPECT_DEATH(q.schedule(5, &rec), "assertion");
}

} // namespace
