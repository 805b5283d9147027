/**
 * @file
 * The BFGTS hardware scheduling accelerator (paper Section 4.1).
 *
 * One TxPredictor per CPU, each holding:
 *  - a CPU Table: the dTxID currently executing on every other CPU,
 *    kept coherent by snooping begin/commit/abort broadcasts on the
 *    interconnect (TLB-shootdown style);
 *  - control registers: confidence threshold, dTxID->sTxID shift,
 *    confidence-table base address, and the dTxID to serialize
 *    against (read back by software via TX_QUERY_PREDICTOR);
 *  - a small (2kB, 16-way) Tx confidence cache that caches the
 *    per-CPU confidence table and *refetches* lines killed by
 *    invalidation snoops, so repeated predictions stay fast even
 *    while other CPUs write the tables.
 *
 * Because a refetch leaves every cache holding what it held, a
 * confidence-write snoop changes only the refetch count, which is the
 * number of caches holding the written line. Every CPU's table sits at
 * the same offset inside its own region, so the system keeps one
 * resident count per table line (maintained by predict()'s fills and
 * evictions) and a write costs O(1) however many CPUs there are.
 *
 * On TX_BEGIN the predictor runs the paper's Example 1: walk the CPU
 * Table, look up confidence[sTxID][sTxID(remote)], and report the
 * first remote transaction whose confidence exceeds the threshold.
 *
 * The predictor does not own the confidence *values* -- those live in
 * the BFGTS software runtime's tables -- it owns the cached *timing*
 * of reading them, so predict() takes a read functor.
 */

#ifndef BFGTS_CPU_PREDICTOR_H
#define BFGTS_CPU_PREDICTOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "htm/tx_id.h"
#include "mem/cache.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace sim {
class AuditEngine;
}

namespace cpu {

/** Timing and geometry of one predictor unit. */
struct PredictorConfig {
    /** Tx confidence cache (Table 2: 2kB, 16-way, 1 cycle). */
    mem::CacheConfig confCache{
        .sizeBytes = 2 * 1024,
        .associativity = 16,
        .hitLatency = 1};

    /** Cycles to trigger the predictor on TX_BEGIN. */
    sim::Cycles triggerCost = 1;

    /** Cycles to scan one CPU Table entry (register read + compare). */
    sim::Cycles perEntryCost = 1;

    /** Cycles to fill a confidence line on a cache miss (from L2). */
    sim::Cycles missLatency = 32;

    /** Bytes per confidence entry in the table layout. */
    std::uint64_t entryBytes = 4;
};

/** Result of a TX_BEGIN prediction. */
struct PredictResult {
    /** True if a likely conflict was found and the tx must serialize. */
    bool conflictPredicted = false;
    /** dTxID to serialize against (valid when conflictPredicted). */
    htm::DTxId waitOn = htm::kNoTx;
    /** Cycles the prediction took. */
    sim::Cycles latency = 0;
    /** Highest confidence value consulted (0..255 table units);
     *  the triggering confidence when conflictPredicted. */
    std::uint32_t maxConfidence = 0;
};

/** Reads confidence[row][col] from the runtime's table. */
using ConfidenceFn =
    std::function<std::uint32_t(htm::STxId row, htm::STxId col)>;

/**
 * The per-CPU predictor units plus the snooping interconnect glue
 * that keeps their CPU Tables coherent.
 */
class PredictorSystem
{
  public:
    /**
     * @param num_cpus      CPUs in the system (one predictor each).
     * @param ids           dTxID encode/decode (provides the shift).
     * @param config        Timing/geometry.
     */
    PredictorSystem(int num_cpus, const htm::TxIdSpace &ids,
                    const PredictorConfig &config = {});

    /**
     * Broadcast: @p cpu started executing @p dtx. All other
     * predictors update their CPU Table entry for @p cpu.
     */
    void broadcastBegin(sim::CpuId cpu, htm::DTxId dtx);

    /** Broadcast: @p cpu committed or aborted its transaction. */
    void broadcastEnd(sim::CpuId cpu);

    /**
     * The software runtime wrote confidence[row][col]. Every
     * predictor's confidence cache snoops the invalidation and
     * refetches the line if it holds it; counts one refetch per
     * holding cache, in O(1).
     */
    void onConfidenceWrite(htm::STxId row, htm::STxId col);

    /**
     * Run Example 1 on @p self's predictor.
     *
     * @param self       Predicting CPU.
     * @param stx        Static ID of the transaction about to begin.
     * @param read_conf  Confidence table reader.
     * @param threshold  Serialize when confidence > threshold.
     */
    PredictResult predict(sim::CpuId self, htm::STxId stx,
                          const ConfidenceFn &read_conf,
                          std::uint32_t threshold);

    /** CPU Table entry of @p owner as seen by @p viewer (tests). */
    htm::DTxId cpuTableEntry(sim::CpuId viewer, sim::CpuId owner) const;

    /**
     * Invariant audit (sim/audit.h): the snooped CPU Tables are
     * coherent -- every predictor unit agrees on which dTxID runs on
     * every CPU, and those entries match @p expected (the committer's
     * ground truth, expected[cpu] == kNoTx when that CPU runs no
     * transaction). Reports "predictor.cputable".
     */
    void auditCheck(sim::AuditEngine &audit,
                    const std::vector<htm::DTxId> &expected,
                    sim::Tick tick) const;

    /**
     * Test hook for the audit mutation selftest: corrupt one unit's
     * CPU Table entry so predictor.cputable must fire. Never call
     * outside tests.
     */
    void
    testCorruptCpuTable(sim::CpuId viewer, sim::CpuId owner,
                        htm::DTxId dtx)
    {
        units_[static_cast<std::size_t>(viewer)]
            .cpuTable[static_cast<std::size_t>(owner)] = dtx;
    }

    /** Confidence cache of @p cpu (stats/tests). */
    const mem::Cache &confCache(sim::CpuId cpu) const;

    /** Modeled bytes held per CPU (CPU Table entries plus the
     *  confidence-cache capacity); host-profiler memory gauge. Grows
     *  linearly with CPUs -- the ROADMAP item-2 scaling hazard. */
    std::uint64_t
    memoryFootprintBytes() const
    {
        std::uint64_t bytes = 0;
        for (const Unit &unit : units_) {
            bytes += unit.cpuTable.size() * sizeof(htm::DTxId);
            bytes += config_.confCache.sizeBytes;
        }
        return bytes;
    }

    const sim::Counter &predictions() const { return predictions_; }
    const sim::Counter &conflictsPredicted() const
    {
        return conflictsPredicted_;
    }

    /** Lines refetched by the confidence caches after write snoops,
     *  summed over CPUs. */
    const sim::Counter &confCacheRefetches() const
    {
        return refetches_;
    }

    /** Confidence-write snoops broadcast to the caches. */
    const sim::Counter &snoopInvalidations() const
    {
        return snoopInvalidations_;
    }

    /** CPU Table updates from begin/end broadcasts. */
    const sim::Counter &cpuTableUpdates() const
    {
        return cpuTableUpdates_;
    }

  private:
    struct Unit {
        std::vector<htm::DTxId> cpuTable;
        std::unique_ptr<mem::Cache> cache;
    };

    /** Synthetic physical address of @p cpu's confidence table. */
    static mem::Addr regionBase(sim::CpuId cpu);

    /** Byte offset of confidence[row][col] inside any CPU's table. */
    mem::Addr tableOffset(htm::STxId row, htm::STxId col) const;

    int numCpus_;
    const htm::TxIdSpace &ids_;
    PredictorConfig config_;
    std::vector<Unit> units_;
    /** Per table line (by offset): confidence caches holding it. */
    std::vector<std::uint32_t> residentCaches_;
    sim::Counter refetches_;
    sim::Counter predictions_;
    sim::Counter conflictsPredicted_;
    sim::Counter snoopInvalidations_;
    sim::Counter cpuTableUpdates_;
};

} // namespace cpu

#endif // BFGTS_CPU_PREDICTOR_H
