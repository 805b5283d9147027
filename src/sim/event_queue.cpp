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

std::uint32_t
EventQueue::acquireSlot(EventFn &&fn)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.live = true;
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.fn = nullptr;
    s.live = false;
    ++s.gen; // Invalidates every outstanding handle to this slot.
    freeSlots_.push_back(slot);
}

bool
EventQueue::liveId(EventId id) const
{
    const std::uint32_t slot = slotOf(id);
    if (slot >= slots_.size())
        return false;
    const Slot &s = slots_[slot];
    return s.live && s.gen == static_cast<std::uint32_t>(id >> 32);
}

std::size_t
EventQueue::structBytes() const
{
    return heap_.size() * sizeof(HeapNode)
         + slots_.capacity() * sizeof(Slot)
         + freeSlots_.capacity() * sizeof(std::uint32_t);
}

EventId
EventQueue::schedule(Tick when, EventFn fn)
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
    const std::uint32_t slot = acquireSlot(std::move(fn));
    const EventId id = encodeId(slot, slots_[slot].gen);
    heapPush(HeapNode{when, nextSeq_++, id});
    ++live_;
    return id;
}

bool
EventQueue::deschedule(EventId id)
{
    if (id == kNoEvent || !liveId(id))
        return false;
    // O(1) lazy deletion: bump the slot generation so the heap node
    // is recognized as stale and skipped when it surfaces.
    releaseSlot(slotOf(id));
    if (live_ > 0)
        --live_;
    return true;
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
                                   structBytes());
        }
        const HeapNode top = heap_.front();
        if (!liveId(top.id)) {
            // Cancelled: the slot generation moved past this node.
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
        // Move the callback out and recycle the slot before invoking:
        // the callback may schedule new events (possibly reusing this
        // very slot under a fresh generation).
        EventFn fn = std::move(slots_[slotOf(top.id)].fn);
        releaseSlot(slotOf(top.id));
        heapPop();
        --live_;
        curTick_ = top.when;
        if (profiler_ != nullptr)
            profiler_->exit();
        fn();
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
