#include "mem_system.h"

#include "sim/logging.h"

namespace mem {

MemSystem::MemSystem(const MemSystemConfig &config)
    : config_(config), l2_(config.l2), bus_(config.busOccupancy)
{
    sim_assert(config.numCpus >= 1);
    l1s_.reserve(static_cast<std::size_t>(config.numCpus));
    for (int i = 0; i < config.numCpus; ++i)
        l1s_.push_back(std::make_unique<Cache>(config.l1));
}

sim::Cycles
MemSystem::access(sim::CpuId cpu, Addr addr, bool is_write,
                  sim::Tick now)
{
    sim_assert(cpu >= 0 && cpu < config_.numCpus);
    Cache &l1 = *l1s_[cpu];
    sim::Cycles latency = l1.hitLatency();

    bool l1_hit = l1.access(addr);
    bool need_bus = !l1_hit;

    if (is_write) {
        // Write-invalidate coherence: remote copies are killed. A
        // write to a line shared remotely also needs a bus
        // transaction (upgrade) even when it hits locally.
        for (int other = 0; other < config_.numCpus; ++other) {
            if (other == cpu)
                continue;
            if (l1s_[other]->invalidate(addr))
                need_bus = true;
        }
    }

    if (!l1_hit) {
        sim::Cycles queue = bus_.request(now + latency);
        latency += queue + bus_.occupancy();
        bool l2_hit = l2_.access(addr);
        latency += l2_.hitLatency();
        if (!l2_hit)
            latency += config_.memLatency;
    } else if (need_bus) {
        // Upgrade transaction: arbitration + occupancy, no data read.
        sim::Cycles queue = bus_.request(now + latency);
        latency += queue + bus_.occupancy();
    }

    return latency;
}

} // namespace mem
