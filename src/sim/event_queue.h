/**
 * @file
 * Deterministic discrete-event simulation core.
 *
 * The EventQueue orders events by (tick, insertion sequence): two events
 * scheduled for the same tick fire in the order they were scheduled.
 * This makes the whole simulation reproducible regardless of heap
 * internals or container iteration order.
 *
 * An event is plain data: (tick, seq, target, arg). When it surfaces,
 * the queue asks the target whether the node is still live and, if
 * so, dispatches it with one virtual call, target->fire(arg). There is
 * no per-event callable and no cancellation handle: a component that
 * must drop an event in flight keeps its own generation counter in
 * @p arg and reports the node stale from live(), so a steady-state
 * simulation allocates nothing per event.
 */

#ifndef BFGTS_SIM_EVENT_QUEUE_H
#define BFGTS_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace sim {

class AuditEngine;
class Profiler;

/**
 * Receiver of scheduled events. A component schedules nodes naming
 * itself and an @p arg whose meaning it alone defines (a worker
 * index, a CPU, a kind bit). Queued nodes hold its address, so it is
 * neither copied nor moved.
 */
class EventTarget
{
  public:
    EventTarget() = default;
    EventTarget(const EventTarget &) = delete;
    EventTarget &operator=(const EventTarget &) = delete;

    /** Handle the event scheduled with @p arg. */
    virtual void fire(std::uint64_t arg) = 0;

    /**
     * False when the node scheduled with @p arg has been superseded.
     * A stale node is dropped as it surfaces: it does not fire, does
     * not advance curTick(), and is neither audited nor counted.
     */
    virtual bool live(std::uint64_t /*arg*/) const { return true; }

  protected:
    ~EventTarget() = default;
};

/**
 * A deterministic event queue driving simulated time forward.
 *
 * Usage: schedule() nodes at absolute ticks or relative to now with
 * scheduleIn(), then run() until the queue drains (or a bound is hit).
 * A fired target may schedule further events.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p target->fire(@p arg) at an absolute tick.
     *
     * @param when  Absolute tick; must be >= curTick().
     */
    void schedule(Tick when, EventTarget *target, std::uint64_t arg = 0);

    /** Schedule @p target->fire(@p arg) @p delay cycles from now. */
    void
    scheduleIn(Cycles delay, EventTarget *target, std::uint64_t arg = 0)
    {
        schedule(curTick_ + delay, target, arg);
    }

    /**
     * Run events until the queue is empty or limits are reached.
     *
     * @param max_tick    Stop before executing events after this tick.
     * @param max_events  Safety bound on number of events executed;
     *                    exceeding it is a panic (runaway simulation).
     * @return Number of events executed (stale nodes excluded).
     */
    std::uint64_t run(Tick max_tick = kMaxTick,
                      std::uint64_t max_events = kDefaultMaxEvents);

    /** True if no nodes are pending. */
    bool empty() const { return heap_.empty(); }

    /** Pending nodes, including stale ones that have not surfaced. */
    std::size_t size() const { return heap_.size(); }

    /** Safety bound: panic if a run exceeds this many events. */
    static constexpr std::uint64_t kDefaultMaxEvents = 50'000'000'000ULL;

    /**
     * Attach the invariant auditor (borrowed, may be null). When
     * checking is active, schedule() reports past-scheduling through
     * the engine ("event.monotonic") instead of asserting, and run()
     * verifies the executed (tick, seq) order is strictly increasing
     * ("event.tiebreak").
     */
    void setAudit(AuditEngine *audit) { audit_ = audit; }

    /**
     * Attach the host-performance profiler (borrowed, may be null).
     * When set, run() charges its heap pops to the event-queue
     * wall-time phase, samples the byte high-water of the heap once
     * per iteration, and reports each executed event for Perfetto
     * counter sampling. A schedule() push counts toward the phase of
     * its caller. Purely observational: simulated behavior is
     * unchanged.
     */
    void setProfiler(Profiler *profiler) { profiler_ = profiler; }

    /**
     * Test hook for the audit mutation selftest: rewind the insertion
     * sequence counter so a later-scheduled same-tick event executes
     * out of insertion order, which the tie-break check must catch.
     * Never call outside tests.
     */
    void testSetNextSeq(std::uint64_t seq) { nextSeq_ = seq; }

  private:
    /** Heap node: plain data only. */
    struct HeapNode {
        Tick when;
        std::uint64_t seq;
        EventTarget *target;
        std::uint64_t arg;
    };

    static bool
    earlier(const HeapNode &a, const HeapNode &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void heapPush(const HeapNode &node);
    void heapPop();

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    AuditEngine *audit_ = nullptr;
    Profiler *profiler_ = nullptr;
    /** Last executed (tick, seq), for the tie-break order check. */
    Tick lastExecWhen_ = 0;
    std::uint64_t lastExecSeq_ = 0;
    bool anyExecuted_ = false;
    /** Binary min-heap over (when, seq). */
    std::vector<HeapNode> heap_;
};

} // namespace sim

#endif // BFGTS_SIM_EVENT_QUEUE_H
