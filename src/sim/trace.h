/**
 * @file
 * Structured transaction-lifecycle tracing.
 *
 * A TraceSink observes the lifecycle stream (sim/tx_event.h) and
 * renders each event as one or two records (begin decisions, starts,
 * conflicts, aborts, commits, rollbacks, audit violations), filtered
 * by category; two implementations ship besides the Chrome timeline
 * (sim/chrome_trace.h):
 *  - TextTraceSink: one human-readable "key=value" line per record;
 *  - JsonlTraceSink: one JSON object per line (JSON Lines), for
 *    offline reconstruction of full lifecycle timelines.
 *
 * docs/observability.md tabulates each event kind's category,
 * record name and detail keys.
 *
 * Tracing is observational only: sinks add no simulated cost, and a
 * kind no sink renders is never delivered.
 */

#ifndef BFGTS_SIM_TRACE_H
#define BFGTS_SIM_TRACE_H

#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/tx_event.h"

namespace sim {

/** Event categories a sink can filter on. */
enum class TraceCategory : unsigned {
    Tx = 0,
    Sched,
    Cm,
    Predictor,
    Mem,
    Audit,
};

/** Number of trace categories (mask width). */
constexpr unsigned kNumTraceCategories = 6;

/** Short lowercase category name ("tx", "sched", ...). */
const char *traceCategoryName(TraceCategory category);

/**
 * Parse a category name; returns false (and leaves @p out alone) for
 * unknown names.
 */
bool traceCategoryFromName(const std::string &name,
                           TraceCategory *out);

/** One rendered trace record: a category and an event name. */
struct TraceLine {
    TraceCategory category;
    const char *event;
};

/**
 * The records @p kind renders as, in emission order: one for most
 * kinds, two for Stall and Yield ("predict", then "suspend-*"), none
 * for Access and ThreadFinish.
 */
std::span<const TraceLine> traceLines(TxEventKind kind);

/** Key/value details of a rendered record, in emission order. */
using TraceDetails = std::vector<std::pair<const char *, std::string>>;

/** The details every record of @p event carries (built on demand). */
TraceDetails traceDetails(const TxEvent &event);

/**
 * A lifecycle observer that renders events as trace records.
 *
 * The category mask defaults to everything enabled. kinds() reports
 * the event kinds with at least one record in an enabled category,
 * so a fully filtered sink receives nothing; set the mask before the
 * Simulation is built.
 */
class TraceSink : public TxObserver
{
  public:
    TxEventMask kinds() const override;

    /** Render each of the event's records whose category is on. */
    void
    onTxEvent(const TxEvent &event) override
    {
        for (const TraceLine &line : traceLines(event.kind)) {
            if (wants(line.category))
                write(event, line);
        }
    }

    /** Is @p category currently enabled? */
    bool
    wants(TraceCategory category) const
    {
        return (mask_ & bit(category)) != 0;
    }

    /** Enable exactly the given categories. */
    void
    enableOnly(const std::vector<TraceCategory> &categories)
    {
        mask_ = 0;
        for (TraceCategory category : categories)
            mask_ |= bit(category);
    }

  protected:
    /** Render one record of @p event; only called for enabled
     *  categories. */
    virtual void write(const TxEvent &event, const TraceLine &line) = 0;

  private:
    static unsigned
    bit(TraceCategory category)
    {
        return 1u << static_cast<unsigned>(category);
    }

    static unsigned allMask() { return (1u << kNumTraceCategories) - 1; }

    unsigned mask_ = allMask();
};

/** "tick=N cpu=C thread=T sTx=S dTx=D cat=x event k=v..." lines. */
class TextTraceSink : public TraceSink
{
  public:
    explicit TextTraceSink(std::ostream &os) : os_(os) {}

  protected:
    void write(const TxEvent &event, const TraceLine &line) override;

  private:
    std::ostream &os_;
};

/** One compact JSON object per record (JSON Lines). */
class JsonlTraceSink : public TraceSink
{
  public:
    explicit JsonlTraceSink(std::ostream &os) : os_(os) {}

  protected:
    void write(const TxEvent &event, const TraceLine &line) override;

  private:
    std::ostream &os_;
};

} // namespace sim

#endif // BFGTS_SIM_TRACE_H
