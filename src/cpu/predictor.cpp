#include "predictor.h"

#include <algorithm>
#include <string>

#include "sim/audit.h"
#include "sim/logging.h"

namespace cpu {

PredictorSystem::PredictorSystem(int num_cpus,
                                 const htm::TxIdSpace &ids,
                                 const PredictorConfig &config)
    : numCpus_(num_cpus), ids_(ids), config_(config)
{
    sim_assert(num_cpus >= 1);
    const htm::STxId last = ids.numStaticTx() - 1;
    residentCaches_.assign(
        static_cast<std::size_t>(mem::lineNumber(tableOffset(last, last)))
            + 1,
        0);
    units_.reserve(static_cast<std::size_t>(num_cpus));
    for (int i = 0; i < num_cpus; ++i) {
        Unit unit;
        unit.cpuTable.assign(static_cast<std::size_t>(num_cpus),
                             htm::kNoTx);
        unit.cache = std::make_unique<mem::Cache>(config.confCache);
        units_.push_back(std::move(unit));
    }
}

void
PredictorSystem::broadcastBegin(sim::CpuId cpu, htm::DTxId dtx)
{
    sim_assert(cpu >= 0 && cpu < numCpus_);
    for (Unit &unit : units_)
        unit.cpuTable[static_cast<std::size_t>(cpu)] = dtx;
    cpuTableUpdates_.inc();
}

void
PredictorSystem::broadcastEnd(sim::CpuId cpu)
{
    sim_assert(cpu >= 0 && cpu < numCpus_);
    for (Unit &unit : units_)
        unit.cpuTable[static_cast<std::size_t>(cpu)] = htm::kNoTx;
    cpuTableUpdates_.inc();
}

mem::Addr
PredictorSystem::regionBase(sim::CpuId cpu)
{
    // Each CPU's copy of the confidence table lives in its own
    // region; 1MB spacing keeps regions disjoint for any realistic
    // table size (max tables in the paper are ~800 bytes).
    return 0x10000000ULL + static_cast<mem::Addr>(cpu) * (1ULL << 20);
}

mem::Addr
PredictorSystem::tableOffset(htm::STxId row, htm::STxId col) const
{
    const auto index = static_cast<mem::Addr>(row)
                         * static_cast<mem::Addr>(ids_.numStaticTx())
                     + static_cast<mem::Addr>(col);
    return index * config_.entryBytes;
}

void
PredictorSystem::onConfidenceWrite(htm::STxId row, htm::STxId col)
{
    // Every cache holding the line refetches it, and a refetch leaves
    // residency as it was, so the snoop adds the number of holders to
    // the refetch count -- no cache needs visiting.
    const auto line =
        static_cast<std::size_t>(mem::lineNumber(tableOffset(row, col)));
    sim_assert(line < residentCaches_.size());
    refetches_.inc(residentCaches_[line]);
    snoopInvalidations_.inc();
}

PredictResult
PredictorSystem::predict(sim::CpuId self, htm::STxId stx,
                         const ConfidenceFn &read_conf,
                         std::uint32_t threshold)
{
    sim_assert(self >= 0 && self < numCpus_);
    Unit &unit = units_[static_cast<std::size_t>(self)];
    predictions_.inc();

    PredictResult result;
    result.latency = config_.triggerCost;

    for (int remote = 0; remote < numCpus_; ++remote) {
        if (remote == self)
            continue;
        result.latency += config_.perEntryCost;
        const htm::DTxId running =
            unit.cpuTable[static_cast<std::size_t>(remote)];
        if (running == htm::kNoTx)
            continue;
        // confidx = CPUTable[i] >> shift_value (paper Example 1).
        const htm::STxId confidx = ids_.staticOf(running);
        const mem::Addr offset = tableOffset(stx, confidx);
        mem::Addr evicted = mem::kNoLine;
        const bool hit =
            unit.cache->access(regionBase(self) + offset, &evicted);
        if (!hit) {
            ++residentCaches_[static_cast<std::size_t>(
                mem::lineNumber(offset))];
            if (evicted != mem::kNoLine) {
                --residentCaches_[static_cast<std::size_t>(
                    evicted - mem::lineNumber(regionBase(self)))];
            }
        }
        result.latency += hit ? unit.cache->hitLatency()
                              : config_.missLatency;
        const std::uint32_t conf = read_conf(stx, confidx);
        result.maxConfidence = std::max(result.maxConfidence, conf);
        if (conf > threshold) {
            result.conflictPredicted = true;
            result.waitOn = running;
            conflictsPredicted_.inc();
            return result;
        }
    }
    return result;
}

htm::DTxId
PredictorSystem::cpuTableEntry(sim::CpuId viewer, sim::CpuId owner) const
{
    sim_assert(viewer >= 0 && viewer < numCpus_);
    sim_assert(owner >= 0 && owner < numCpus_);
    return units_[static_cast<std::size_t>(viewer)]
        .cpuTable[static_cast<std::size_t>(owner)];
}

void
PredictorSystem::auditCheck(sim::AuditEngine &audit,
                            const std::vector<htm::DTxId> &expected,
                            sim::Tick tick) const
{
    sim_assert(expected.size() == static_cast<std::size_t>(numCpus_));
    for (int owner = 0; owner < numCpus_; ++owner) {
        const htm::DTxId truth =
            expected[static_cast<std::size_t>(owner)];
        for (int viewer = 0; viewer < numCpus_; ++viewer) {
            const htm::DTxId seen =
                units_[static_cast<std::size_t>(viewer)]
                    .cpuTable[static_cast<std::size_t>(owner)];
            audit.check(
                seen == truth, "predictor.cputable",
                [&] {
                    return "CPU Table of cpu " + std::to_string(viewer)
                         + " disagrees with the running dTxID on cpu "
                         + std::to_string(owner);
                },
                tick, static_cast<sim::CpuId>(owner), sim::kNoThread,
                -1, static_cast<std::int64_t>(truth));
        }
    }
}

const mem::Cache &
PredictorSystem::confCache(sim::CpuId cpu) const
{
    sim_assert(cpu >= 0 && cpu < numCpus_);
    return *units_[static_cast<std::size_t>(cpu)].cache;
}

} // namespace cpu
