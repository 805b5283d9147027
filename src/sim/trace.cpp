#include "trace.h"

#include "sim/audit.h"
#include "sim/json.h"

namespace sim {

const char *
traceCategoryName(TraceCategory category)
{
    static constexpr const char *kNames[kNumTraceCategories] = {
        "tx", "sched", "cm", "predictor", "mem", "audit"};
    return kNames[static_cast<unsigned>(category)];
}

bool
traceCategoryFromName(const std::string &name, TraceCategory *out)
{
    for (unsigned i = 0; i < kNumTraceCategories; ++i) {
        const auto category = static_cast<TraceCategory>(i);
        if (name == traceCategoryName(category)) {
            *out = category;
            return true;
        }
    }
    return false;
}

std::span<const TraceLine>
traceLines(TxEventKind kind)
{
    using C = TraceCategory;
    struct Records {
        TraceLine lines[2];
        std::size_t count;
    };
    // Indexed by TxEventKind.
    static constexpr Records kRecords[kNumTxEventKinds] = {
        {{{C::Tx, "start"}}, 1},
        {{{C::Predictor, "predict"}, {C::Sched, "suspend-stall"}}, 2},
        {{{C::Predictor, "predict"}, {C::Sched, "suspend-yield"}}, 2},
        {{{C::Sched, "block"}}, 1},
        {{{C::Sched, "stall-end"}}, 1},
        {{{C::Sched, "stall-timeout"}}, 1},
        {{{C::Sched, "preempt"}}, 1},
        {{{C::Cm, "conflict"}}, 1},
        {{}, 0}, // Access
        {{{C::Tx, "abort"}}, 1},
        {{{C::Mem, "rollback"}}, 1},
        {{{C::Tx, "commit"}}, 1},
        {{}, 0}, // ThreadFinish
        {{{C::Audit, "violation"}}, 1},
    };
    const Records &records = kRecords[static_cast<unsigned>(kind)];
    return {records.lines, records.count};
}

TraceDetails
traceDetails(const TxEvent &event)
{
    using std::to_string;
    switch (event.kind) {
      case TxEventKind::Stall:
      case TxEventKind::Yield:
      case TxEventKind::StallTimeout:
        return {{"on", to_string(event.waitOn)}};
      case TxEventKind::StallEnd:
        return {{"on", to_string(event.waitOn)},
                {"cycles", to_string(event.cycles)}};
      case TxEventKind::Conflict:
        return {{"enemy", to_string(event.enemy)},
                {"line", to_string(event.line)},
                {"write", event.write ? "1" : "0"}};
      case TxEventKind::Abort:
        return {{"enemy", to_string(event.enemy)},
                {"enemySTx", to_string(event.enemySTx)},
                {"wasted", to_string(event.cycles)}};
      case TxEventKind::Rollback:
        return {{"cycles", to_string(event.cycles)}};
      case TxEventKind::Commit:
        return {{"lines", to_string(event.lines)}};
      case TxEventKind::Violation:
        return {{"check", event.violation->check},
                {"msg", event.violation->message}};
      default:
        return {};
    }
}

TxEventMask
TraceSink::kinds() const
{
    TxEventMask mask = 0;
    for (unsigned k = 0; k < kNumTxEventKinds; ++k) {
        const auto kind = static_cast<TxEventKind>(k);
        for (const TraceLine &line : traceLines(kind)) {
            if (wants(line.category))
                mask |= txEventBit(kind);
        }
    }
    return mask;
}

void
TextTraceSink::write(const TxEvent &event, const TraceLine &line)
{
    os_ << "tick=" << event.tick << " cpu=" << event.cpu
        << " thread=" << event.thread << " sTx=" << event.sTx
        << " dTx=" << event.dTx << " cat="
        << traceCategoryName(line.category) << ' ' << line.event;
    for (const auto &[key, value] : traceDetails(event))
        os_ << ' ' << key << '=' << value;
    os_ << '\n';
}

void
JsonlTraceSink::write(const TxEvent &event, const TraceLine &line)
{
    JsonWriter jw(os_, /*indent=*/0);
    jw.beginObject();
    jw.kv("tick", static_cast<std::uint64_t>(event.tick));
    jw.kv("cpu", event.cpu);
    jw.kv("thread", event.thread);
    jw.kv("sTx", event.sTx);
    jw.kv("dTx", event.dTx);
    jw.kv("cat", traceCategoryName(line.category));
    jw.kv("event", line.event);
    const TraceDetails details = traceDetails(event);
    if (!details.empty()) {
        jw.beginObject("detail");
        for (const auto &[key, value] : details)
            jw.kv(key, value);
        jw.endObject();
    }
    jw.endObject();
    os_ << '\n';
}

} // namespace sim
