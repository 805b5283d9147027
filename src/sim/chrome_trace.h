/**
 * @file
 * Chrome trace_event timeline export.
 *
 * ChromeTraceSink renders the lifecycle event stream into the
 * Chrome trace-event JSON format, loadable directly in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing. Conventions
 * (docs/observability.md):
 *
 *  - one track per CPU (pid 0, tid = CPU id), named "CPU <n>";
 *  - duration slices (B/E pairs) for transaction attempts ("run
 *    sTx<k>", closed by commit or abort with the outcome in args)
 *    and begin-stall windows ("stall", closed by stall-end,
 *    stall-timeout, preemption, or the next start);
 *  - instant events for predictions ("predict"), conflicts
 *    ("conflict"), yields, blocks, and rollbacks;
 *  - counter tracks ("commits/win", "abortRate", ...) fed per window
 *    by sim::Sampler via counter().
 *
 * Simulated ticks map 1:1 onto trace microseconds (the format's time
 * unit); absolute times are meaningless, only spans and order are.
 *
 * The sink keeps at most one open run slice and one open stall slice
 * per CPU and closes them defensively when events interleave (e.g.
 * a preempted begin-staller whose CPU runs someone else), so the
 * emitted B/E pairs always balance and nest per track.
 *
 * The document is written incrementally; close() (or the destructor)
 * terminates the JSON. Output is deterministic: equal event streams
 * produce byte-identical documents.
 */

#ifndef BFGTS_SIM_CHROME_TRACE_H
#define BFGTS_SIM_CHROME_TRACE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace sim {

/** Streams lifecycle events as Chrome trace-event JSON. */
class ChromeTraceSink : public TraceSink
{
  public:
    explicit ChromeTraceSink(std::ostream &os);

    /** Closes the document if close() was not called. */
    ~ChromeTraceSink() override;

    ChromeTraceSink(const ChromeTraceSink &) = delete;
    ChromeTraceSink &operator=(const ChromeTraceSink &) = delete;

    /** Terminate the JSON document. Idempotent. */
    void close();

    /**
     * Emit one sample of counter track @p name at @p tick. Counter
     * events live on the process track, independent of CPUs.
     */
    void counter(Tick tick, const char *name, double value);

  protected:
    void write(const TxEvent &event, const TraceLine &line) override;

  private:
    /** What duration slice, if any, is open on a CPU track. A CPU
     *  runs at most one of these at a time (threads never leave
     *  their CPU mid-transaction), so one slot suffices. */
    enum class Slice { None, Run, Stall, Retry };

    struct CpuTrack {
        bool named = false;
        Slice open = Slice::None;
        /** Name the open slice was begun with (E must match B). */
        std::string openName;
    };

    CpuTrack &track(CpuId cpu);

    /** Comma/newline separator between array elements. */
    void sep();

    /** Emit a metadata event (@p what: process_name, or thread_name
     *  for track @p tid >= 0) naming it @p name. */
    void metadata(const char *what, int tid, const std::string &name);

    /** Begin a duration slice of @p kind named @p name. */
    void beginSlice(const TxEvent &event, Slice kind, std::string name);

    /**
     * End the open slice on @p cpu at @p tick, if any. When @p event
     * is non-null its details (plus @p outcome) become the E event's
     * args, which trace viewers merge into the slice.
     */
    void endSlice(CpuId cpu, Tick tick, const TxEvent *event = nullptr,
                  const char *outcome = nullptr);

    /** Close a slice of @p kind with @p event, else mark an instant. */
    void endOrInstant(const TxEvent &event, const TraceLine &line,
                      Slice kind, const char *outcome);

    void instant(const TxEvent &event, const TraceLine &line);

    std::ostream &os_;
    std::vector<CpuTrack> tracks_;
    bool first_ = true;
    bool closed_ = false;
};

} // namespace sim

#endif // BFGTS_SIM_CHROME_TRACE_H
