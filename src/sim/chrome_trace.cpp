#include "chrome_trace.h"

#include "sim/json.h"

namespace sim {

namespace {

/** Shared event prefix: name, phase, timestamp, track. */
void
eventHead(JsonWriter &jw, const std::string &name, const char *phase,
          Tick ts, int tid)
{
    jw.kv("name", name);
    jw.kv("ph", phase);
    jw.kv("ts", static_cast<std::uint64_t>(ts));
    jw.kv("pid", 0);
    jw.kv("tid", tid);
}

/** Copy an event's details into the open "args" object. */
void
detailArgs(JsonWriter &jw, const TxEvent &event)
{
    jw.kv("thread", static_cast<int>(event.thread));
    jw.kv("sTx", event.sTx);
    jw.kv("dTx", event.dTx);
    for (const auto &[key, value] : traceDetails(event))
        jw.kv(key, value);
}

} // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(os)
{
    os_ << "{\"traceEvents\":[\n";
    metadata("process_name", -1, "bfgts-sim");
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void
ChromeTraceSink::close()
{
    if (closed_)
        return;
    closed_ = true;
    os_ << "\n]}\n";
    os_.flush();
}

ChromeTraceSink::CpuTrack &
ChromeTraceSink::track(CpuId cpu)
{
    const auto index =
        static_cast<std::size_t>(cpu >= 0 ? cpu : 0);
    if (index >= tracks_.size())
        tracks_.resize(index + 1);
    CpuTrack &t = tracks_[index];
    if (!t.named) {
        t.named = true;
        metadata("thread_name", static_cast<int>(index),
                 "CPU " + std::to_string(index));
    }
    return t;
}

void
ChromeTraceSink::sep()
{
    if (!first_)
        os_ << ",\n";
    first_ = false;
}

void
ChromeTraceSink::metadata(const char *what, int tid,
                          const std::string &name)
{
    sep();
    JsonWriter jw(os_, /*indent=*/0);
    jw.beginObject();
    jw.kv("name", what);
    jw.kv("ph", "M");
    jw.kv("pid", 0);
    if (tid >= 0)
        jw.kv("tid", tid);
    jw.beginObject("args");
    jw.kv("name", name);
    jw.endObject();
    jw.endObject();
}

void
ChromeTraceSink::counter(Tick tick, const char *name, double value)
{
    if (closed_)
        return;
    sep();
    JsonWriter jw(os_, /*indent=*/0);
    jw.beginObject();
    eventHead(jw, name, "C", tick, 0);
    jw.beginObject("args");
    jw.kv("value", value);
    jw.endObject();
    jw.endObject();
}

void
ChromeTraceSink::beginSlice(const TxEvent &event, Slice kind,
                            std::string name)
{
    CpuTrack &t = track(event.cpu);
    sep();
    JsonWriter jw(os_, /*indent=*/0);
    jw.beginObject();
    eventHead(jw, name, "B", event.tick, static_cast<int>(event.cpu));
    jw.beginObject("args");
    detailArgs(jw, event);
    jw.endObject();
    jw.endObject();
    t.open = kind;
    t.openName = std::move(name);
}

void
ChromeTraceSink::endSlice(CpuId cpu, Tick tick, const TxEvent *event,
                          const char *outcome)
{
    CpuTrack &t = track(cpu);
    if (t.open == Slice::None)
        return;
    sep();
    JsonWriter jw(os_, /*indent=*/0);
    jw.beginObject();
    eventHead(jw, t.openName, "E", tick, static_cast<int>(cpu));
    if (event != nullptr) {
        jw.beginObject("args");
        if (outcome != nullptr)
            jw.kv("outcome", outcome);
        detailArgs(jw, *event);
        jw.endObject();
    }
    jw.endObject();
    t.open = Slice::None;
    t.openName.clear();
}

void
ChromeTraceSink::endOrInstant(const TxEvent &event, const TraceLine &line,
                              Slice kind, const char *outcome)
{
    if (track(event.cpu).open == kind)
        endSlice(event.cpu, event.tick, &event, outcome);
    else
        instant(event, line);
}

void
ChromeTraceSink::instant(const TxEvent &event, const TraceLine &line)
{
    track(event.cpu);
    sep();
    JsonWriter jw(os_, /*indent=*/0);
    jw.beginObject();
    eventHead(jw, line.event, "i", event.tick,
              static_cast<int>(event.cpu));
    jw.kv("s", "t");
    jw.beginObject("args");
    detailArgs(jw, event);
    jw.endObject();
    jw.endObject();
}

void
ChromeTraceSink::write(const TxEvent &event, const TraceLine &line)
{
    if (closed_)
        return;
    const std::string site = std::to_string(event.sTx);
    switch (event.kind) {
      case TxEventKind::Start:
        endSlice(event.cpu, event.tick);
        beginSlice(event, Slice::Run, "run s" + site);
        return;
      case TxEventKind::Commit:
        endOrInstant(event, line, Slice::Run, "commit");
        return;
      case TxEventKind::Abort:
        endOrInstant(event, line, Slice::Run, "abort");
        // Rollback + backoff + re-begin shows as a retry window.
        beginSlice(event, Slice::Retry, "retry s" + site);
        return;
      case TxEventKind::Stall:
        if (line.category == TraceCategory::Predictor)
            break; // the "predict" record is an instant
        endSlice(event.cpu, event.tick);
        beginSlice(event, Slice::Stall, "stall s" + site);
        return;
      case TxEventKind::StallEnd:
        endOrInstant(event, line, Slice::Stall, "released");
        return;
      case TxEventKind::StallTimeout:
        endOrInstant(event, line, Slice::Stall, "timeout");
        return;
      case TxEventKind::Yield:
        if (line.category == TraceCategory::Predictor)
            break;
        [[fallthrough]];
      case TxEventKind::Block:
      case TxEventKind::Preempt:
        // The thread leaves its CPU; whatever window was open there
        // (a retry backoff or a stall) ends with it.
        endSlice(event.cpu, event.tick);
        break;
      default:
        // Conflict, rollback and violation records are instants.
        break;
    }
    instant(event, line);
}

} // namespace sim
