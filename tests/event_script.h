/**
 * @file
 * Test-only event target that runs scripted actions: each at()/in()
 * call schedules one node whose arg indexes the action to run, so a
 * test can drive an EventQueue with inline lambdas.
 */

#ifndef BFGTS_TESTS_EVENT_SCRIPT_H
#define BFGTS_TESTS_EVENT_SCRIPT_H

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/event_queue.h"

namespace testutil {

class EventScript final : public sim::EventTarget
{
  public:
    explicit EventScript(sim::EventQueue &events) : events_(events) {}

    /** Run @p action at absolute tick @p when. */
    void
    at(sim::Tick when, std::function<void()> action)
    {
        events_.schedule(when, this, add(std::move(action)));
    }

    /** Run @p action @p delay cycles from now. */
    void
    in(sim::Cycles delay, std::function<void()> action)
    {
        events_.scheduleIn(delay, this, add(std::move(action)));
    }

    void fire(std::uint64_t arg) override { actions_[arg](); }

  private:
    std::uint64_t
    add(std::function<void()> action)
    {
        // A deque keeps the running action in place while it
        // schedules more.
        actions_.push_back(std::move(action));
        return actions_.size() - 1;
    }

    sim::EventQueue &events_;
    std::deque<std::function<void()>> actions_;
};

} // namespace testutil

#endif // BFGTS_TESTS_EVENT_SCRIPT_H
