#include "profiler.h"

#include <algorithm>
#include <atomic>

#include "sim/chrome_trace.h"
#include "sim/host_clock.h"
#include "sim/json.h"

namespace sim {

namespace {

const char *const kPhaseNames[Profiler::kNumPhases + 1] = {
    "event_queue", "workload", "cm_decide", "cm_commit",
    "bloom",       "predictor", "os_sched", "mem",
    "other",
};

const char *const kStructureNames[Profiler::kNumStructures] = {
    "confidence_tables",
    "bloom_signatures",
    "predictor_caches",
    "event_queue",
};

} // namespace

const char *
Profiler::phaseName(int phase)
{
    if (phase < 0 || phase > kNumPhases)
        return "?";
    return kPhaseNames[phase];
}

const char *
Profiler::structureName(int structure)
{
    if (structure < 0 || structure >= kNumStructures)
        return "?";
    return kStructureNames[structure];
}

Profiler::Profiler(ClockFn clock)
    : clock_(clock != nullptr ? clock : &hostNowNs)
{
}

void
Profiler::beginRun()
{
    runStart_ = clock_();
    lastStamp_ = runStart_;
}

void
Profiler::endRun(std::uint64_t events_executed, Tick final_tick)
{
    const std::uint64_t now = clock_();
    if (now > runStart_)
        data_.wallNs = now - runStart_;
    data_.events = events_executed;
    data_.ticks = final_tick;
    samplePeakRss();
}

void
Profiler::samplePeakRss()
{
    const std::uint64_t rss = hostPeakRssBytes();
    if (rss > data_.peakRssBytes)
        data_.peakRssBytes = rss;
}

void
Profiler::onEventExecuted(Tick now)
{
    if (++eventsSeen_ % kCounterSampleEvents != 0
        || counterSink_ == nullptr) {
        return;
    }
    for (int p = 0; p < kNumPhases; ++p) {
        std::string name = "host.";
        name += phaseName(p);
        name += "_ms";
        counterSink_->counter(
            now, name.c_str(),
            static_cast<double>(data_.phaseNs[static_cast<std::size_t>(p)])
                / 1e6);
    }
    counterSink_->counter(
        now, "host.rss_mb",
        static_cast<double>(hostPeakRssBytes()) / (1024.0 * 1024.0));
}

double
Profiler::Data::eventsPerSec() const
{
    if (wallNs == 0)
        return 0.0;
    return static_cast<double>(events) * 1e9
         / static_cast<double>(wallNs);
}

double
Profiler::Data::wallNsPerCycle() const
{
    if (ticks == 0)
        return 0.0;
    return static_cast<double>(wallNs) / static_cast<double>(ticks);
}

std::uint64_t
Profiler::Data::otherNs() const
{
    std::uint64_t attributed = 0;
    for (std::uint64_t ns : phaseNs)
        attributed += ns;
    return attributed >= wallNs ? 0 : wallNs - attributed;
}

double
Profiler::Data::share(int phase) const
{
    if (wallNs == 0)
        return 0.0;
    const std::uint64_t ns =
        phase == kNumPhases ? otherNs()
                            : phaseNs[static_cast<std::size_t>(phase)];
    return static_cast<double>(ns) / static_cast<double>(wallNs);
}

void
Profiler::Data::writeJson(JsonWriter &jw) const
{
    jw.kv("wallNs", wallNs);
    jw.kv("events", events);
    jw.kv("ticks", ticks);
    jw.kv("eventsPerSec", eventsPerSec());
    jw.kv("wallNsPerCycle", wallNsPerCycle());
    jw.kv("peakRssBytes", peakRssBytes);
    jw.beginArray("phases");
    for (int p = 0; p <= kNumPhases; ++p) {
        jw.beginObject();
        jw.kv("name", phaseName(p));
        jw.kv("ns", p == kNumPhases
                        ? otherNs()
                        : phaseNs[static_cast<std::size_t>(p)]);
        jw.kv("calls",
              p == kNumPhases
                  ? std::uint64_t{0}
                  : phaseCalls[static_cast<std::size_t>(p)]);
        jw.kv("share", share(p));
        jw.endObject();
    }
    jw.endArray();
    jw.beginArray("memory");
    for (int s = 0; s < kNumStructures; ++s) {
        jw.beginObject();
        jw.kv("name", structureName(s));
        jw.kv("bytes", structBytes[static_cast<std::size_t>(s)]);
        jw.endObject();
    }
    jw.endArray();
}

void
Profiler::writeReport(std::ostream &os, const std::string &name) const
{
    writeProfReport(os, name, data_);
}

void
writeProfReport(std::ostream &os, const std::string &name,
                const Profiler::Data &data)
{
    JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "bfgts-prof-v1");
    jw.kv("kind", "run");
    jw.kv("name", name);
    jw.kv("git", buildGitDescribe());
    jw.beginObject("run");
    data.writeJson(jw);
    jw.endObject();
    jw.endObject();
    os << "\n";
}

MinMedMax
minMedianMax(std::vector<double> values)
{
    MinMedMax out;
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    out.min = values.front();
    out.max = values.back();
    const std::size_t n = values.size();
    if (n % 2 == 1)
        out.median = values[n / 2];
    else
        out.median = (values[n / 2 - 1] + values[n / 2]) / 2.0;
    return out;
}

// ---- process-global host accounting ---------------------------------

namespace {
std::atomic<std::uint64_t> g_hostWallNs{0};
std::atomic<std::uint64_t> g_hostEvents{0};
std::atomic<std::uint64_t> g_hostTicks{0};
std::atomic<std::uint64_t> g_hostRuns{0};
} // namespace

void
addHostRunSample(std::uint64_t wall_ns, std::uint64_t events,
                 std::uint64_t ticks)
{
    g_hostWallNs.fetch_add(wall_ns, std::memory_order_relaxed);
    g_hostEvents.fetch_add(events, std::memory_order_relaxed);
    g_hostTicks.fetch_add(ticks, std::memory_order_relaxed);
    g_hostRuns.fetch_add(1, std::memory_order_relaxed);
}

HostRunTotals
hostRunTotals()
{
    HostRunTotals totals;
    totals.wallNs = g_hostWallNs.load(std::memory_order_relaxed);
    totals.events = g_hostEvents.load(std::memory_order_relaxed);
    totals.ticks = g_hostTicks.load(std::memory_order_relaxed);
    totals.runs = g_hostRuns.load(std::memory_order_relaxed);
    return totals;
}

double
HostRunTotals::eventsPerSec() const
{
    if (wallNs == 0)
        return 0.0;
    return static_cast<double>(events) * 1e9
         / static_cast<double>(wallNs);
}

double
HostRunTotals::wallNsPerCycle() const
{
    if (ticks == 0)
        return 0.0;
    return static_cast<double>(wallNs) / static_cast<double>(ticks);
}

} // namespace sim
