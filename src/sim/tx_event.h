/**
 * @file
 * The typed transaction-lifecycle event stream.
 *
 * The runner announces every transaction transition once, as a
 * TxEvent, to each TxObserver subscribed to its kind: trace sinks
 * render it (sim/trace.h), the lifecycle FSM auditor checks it
 * (runner/audit_checks.h) and the quality recorder books commit and
 * abort outcomes (sim/quality.h). Observers declare their kinds once;
 * a kind nobody observes costs one AND at its emission site.
 * docs/observability.md maps each kind to its trace records.
 */

#ifndef BFGTS_SIM_TX_EVENT_H
#define BFGTS_SIM_TX_EVENT_H

#include <cstdint>

#include "sim/types.h"

namespace sim {

struct AuditViolation;

/** Every transition the lifecycle stream carries. */
enum class TxEventKind : unsigned {
    Start = 0,    ///< the CM let the attempt begin
    Stall,        ///< begin decision: spin until waitOn finishes
    Yield,        ///< begin decision: yield the CPU because of waitOn
    Block,        ///< begin decision: block until the CM wakes us
    StallEnd,     ///< a begin-stall ended: waitOn finished
    StallTimeout, ///< a begin-stall gave up
    Preempt,      ///< a begin-staller lost its CPU
    Conflict,     ///< the attempt's first conflict with enemy
    Access,       ///< a transactional access went through
    Abort,        ///< the attempt aborted; enemy won
    Rollback,     ///< the aborted attempt's undo log was walked
    Commit,       ///< the attempt committed
    ThreadFinish, ///< the thread ran out of transactions
    Violation,    ///< an audit check failed (sim/audit.h)
};

constexpr unsigned kNumTxEventKinds = 14;

/** Set of event kinds, one bit per kind. */
using TxEventMask = std::uint32_t;

constexpr TxEventMask
txEventBit(TxEventKind kind)
{
    return TxEventMask{1} << static_cast<unsigned>(kind);
}

/** How a classified begin decision turned out (Commit, Abort). */
enum class TxOutcome {
    TruePositive,   ///< stalled, and the sets did overlap
    FalsePositive,  ///< stalled, but no conflict would have occurred
    FalseNegative,  ///< did not stall, and a conflict aborted it
    PredictedAbort, ///< stalled, yet the attempt still aborted
    TrueNegative,   ///< did not stall, and it committed cleanly
};

/**
 * One lifecycle transition. Payload fields are meaningful only for
 * the kinds named beside them and keep their defaults otherwise.
 */
struct TxEvent {
    TxEventKind kind = TxEventKind::Start;
    Tick tick = 0;
    CpuId cpu = kNoCpu;
    ThreadId thread = kNoThread;
    /** Static and dynamic transaction IDs, -1 when not applicable. */
    std::int64_t sTx = -1;
    std::int64_t dTx = -1;

    /** Conflict, Abort: the other transaction's dTxID. */
    std::int64_t enemy = -1;
    /** Abort: the winner's site; Commit: waitOn's site (or -1). */
    std::int64_t enemySTx = -1;
    /** Stall, Yield, StallEnd, StallTimeout: the dTxID waited on;
     *  Commit: the one the attempt was serialized behind (or -1). */
    std::int64_t waitOn = -1;
    /** Conflict: the contended line, and whether it was a store. */
    std::uint64_t line = 0;
    bool write = false;
    /** StallEnd, StallTimeout: stall length; Rollback: undo-log
     *  walk; Abort, Commit: the outcome's cycles (attempt cycles for
     *  TP, FN and predicted aborts, stall cycles for FP, 0 for TN). */
    Cycles cycles = 0;
    /** Commit: size of the read/write line set. */
    std::uint64_t lines = 0;
    /** Abort, Commit: the outcome of the attempt's begin decision,
     *  and the confidence behind it ([0, 1], negative if none). */
    TxOutcome outcome = TxOutcome::TrueNegative;
    double confidence = -1.0;
    /** Violation: the failed check (borrowed for the call). */
    const AuditViolation *violation = nullptr;
};

/** Receives the lifecycle events of the kinds it declares. */
class TxObserver
{
  public:
    virtual ~TxObserver() = default;

    /** Kinds to deliver; read once, when a Simulation is built. */
    virtual TxEventMask kinds() const = 0;

    /** Handle one event of a kind in kinds(). */
    virtual void onTxEvent(const TxEvent &event) = 0;
};

} // namespace sim

#endif // BFGTS_SIM_TX_EVENT_H
