#include "event_queue.h"

#include <utility>

#include "sim/audit.h"
#include "sim/logging.h"
#include "sim/profiler.h"

namespace sim {

void
EventQueue::heapPush(const HeapNode &node)
{
    heap_.push_back(node);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!earlier(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
EventQueue::heapPop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
        const std::size_t left = 2 * i + 1;
        const std::size_t right = left + 1;
        std::size_t min = i;
        if (left < n && earlier(heap_[left], heap_[min]))
            min = left;
        if (right < n && earlier(heap_[right], heap_[min]))
            min = right;
        if (min == i)
            break;
        std::swap(heap_[i], heap_[min]);
        i = min;
    }
}

void
EventQueue::schedule(Tick when, EventTarget *target, std::uint64_t arg)
{
    if (audit_ != nullptr && audit_->shouldCheck()) {
        // Under audit the past-scheduling invariant reports through
        // the engine (so the mutation selftest can observe it in
        // Collect mode) and clamps to now, keeping time monotonic.
        if (!audit_->check(when >= curTick_, "event.monotonic",
                           "event scheduled in the past", curTick_)) {
            when = curTick_;
        }
    } else {
        sim_assert(when >= curTick_);
    }
    heapPush(HeapNode{when, nextSeq_++, target, arg});
}

std::uint64_t
EventQueue::run(Tick max_tick, std::uint64_t max_events)
{
    std::uint64_t executed = 0;
    while (!heap_.empty()) {
        if (profiler_ != nullptr) {
            profiler_->enter(Profiler::kEventQueue);
            // Nothing outside run() pops, so the byte high-water is
            // always reached just before one of these iterations.
            profiler_->recordBytes(Profiler::kStructEventQueue,
                                   heap_.size() * sizeof(HeapNode));
        }
        const HeapNode top = heap_.front();
        if (!top.target->live(top.arg)) {
            // Superseded: dropped without touching time or order.
            heapPop();
            if (profiler_ != nullptr)
                profiler_->exit();
            continue;
        }
        if (top.when > max_tick) {
            if (profiler_ != nullptr)
                profiler_->exit();
            break;
        }
        if (audit_ != nullptr && audit_->shouldCheck()) {
            // Deterministic order: executed events must be strictly
            // increasing in (tick, insertion seq); equal-tick events
            // fire in the order they were scheduled.
            const bool ordered =
                !anyExecuted_ || top.when > lastExecWhen_
                || (top.when == lastExecWhen_
                    && top.seq > lastExecSeq_);
            audit_->check(ordered, "event.tiebreak",
                          "event executed out of (tick, seq) order",
                          top.when);
            lastExecWhen_ = top.when;
            lastExecSeq_ = top.seq;
            anyExecuted_ = true;
        }
        // Pop before firing: the target may schedule new events.
        heapPop();
        curTick_ = top.when;
        if (profiler_ != nullptr)
            profiler_->exit();
        top.target->fire(top.arg);
        if (profiler_ != nullptr)
            profiler_->onEventExecuted(curTick_);
        if (++executed > max_events) {
            sim_panic("event queue executed more than %llu events; "
                      "likely a livelocked simulation",
                      static_cast<unsigned long long>(max_events));
        }
    }
    return executed;
}

} // namespace sim
