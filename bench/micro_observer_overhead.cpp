/**
 * @file
 * Observer-overhead microbench: a detached observer must be free, and
 * an attached one must not change results.
 *
 * Every observer hangs off SimConfig and every hook site is guarded,
 * so outside its flag each observer reduces to one branch per site.
 * One leg per observer prices that guarantee by running the same
 * simulation with the observer off and with it attached:
 *
 *  - trace:   a sink that filters every category -- hook sites pay
 *             the wants() mask test and nothing else; it must render
 *             zero records.
 *  - audit:   an engine attached in dry-run mode -- hook sites
 *             dispatch but every checker body is skipped, exactly the
 *             residual cost the hooks impose on an unaudited run.
 *  - prof:    a profiler under a constant fake clock -- enter()/exit()
 *             and the byte gauges run without host-clock reads. A
 *             real-clock profiled run must also serialize
 *             (writeSweepResults) bit-identical to an unprofiled one.
 *  - quality: a real recorder (exact-set copies, intersections,
 *             ledger updates) -- per transaction event, not per
 *             cycle, so even the enabled cost stays small. A recorded
 *             run must serialize bit-identical to an unrecorded one,
 *             and two equal runs must give byte-identical qual
 *             reports.
 *
 * Each leg fails when (on / off - 1) exceeds its tolerance: 2% (5%
 * for quality) on a quiet machine, or the value of --tol. Usage:
 *
 *   micro_observer_overhead [LEG...] [--tol T] [--json [FILE]]
 *
 * With no LEG, every leg runs. Methodology: after one warm-up, the
 * off and on configurations alternate rep by rep. The overhead is the
 * median of the per-rep on/off ratios: each ratio compares two runs
 * made back to back, so it cancels drift in host speed, and the
 * median discards single-run scheduler noise instead of averaging it
 * in. The off and on times printed are the minima over all reps. The
 * noise floor printed beside each overhead is the spread of the
 * minima of the even and the odd off reps: information only, it does
 * not enter the verdict.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/audit.h"
#include "sim/profiler.h"
#include "sim/quality.h"
#include "sim/trace.h"

namespace {

/** One leg's timings: best-of-reps wall times, the paired overhead
 *  and the off-vs-off spread. */
struct Timing {
    double off = 0.0;
    double on = 0.0;
    double overhead = 0.0;
    double noise = 0.0;
};

double
timeRun(const runner::SimConfig &config)
{
    runner::Simulation simulation(config);
    const auto t0 = std::chrono::steady_clock::now();
    simulation.run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Warm up on @p off, then alternate it with @p runOn rep by rep. */
Timing
measure(const runner::SimConfig &off, const std::function<double()> &runOn)
{
    // Warm-up run (page in code and workload data), then alternate.
    timeRun(off);
    // A quick-mode rep is ~50ms, and a shared host drifts in speed by
    // more than the tolerance within one process: the fastest off rep
    // and the fastest on rep can come from different speed phases. So
    // the overhead is the median of per-rep on/off ratios, each pair
    // run back to back on the same machine state.
    const int reps = bench::quickMode() ? 21 : 5;
    double min_off[2] = {1e30, 1e30};
    double min_on = 1e30;
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep) {
        const double t_off = timeRun(off);
        const double t_on = runOn();
        ratios.push_back(t_on / t_off);
        min_off[rep % 2] = std::min(min_off[rep % 2], t_off);
        min_on = std::min(min_on, t_on);
    }
    std::sort(ratios.begin(), ratios.end());
    Timing timing;
    timing.off = std::min(min_off[0], min_off[1]);
    timing.on = min_on;
    timing.overhead = ratios[ratios.size() / 2] - 1.0;
    timing.noise = std::max(min_off[0], min_off[1]) / timing.off - 1.0;
    return timing;
}

std::string
resultsString(const runner::SimConfig &config)
{
    runner::Simulation simulation(config);
    std::ostringstream os;
    runner::writeSweepResults(os, simulation.run());
    return os.str();
}

/** Constant fake clock: hook dispatch without host-clock reads. */
std::uint64_t
fakeClock()
{
    return 42;
}

/** A sink that counts records it renders (should stay at zero). */
class CountingSink : public sim::TraceSink
{
  public:
    std::uint64_t rendered = 0;

  protected:
    void write(const sim::TraceRecord &) override { ++rendered; }
};

bool
traceLeg(const runner::SimConfig &off, Timing &timing)
{
    CountingSink sink;
    sink.enableOnly({});
    runner::SimConfig on = off;
    on.traceSink = &sink;
    timing = measure(off, [&] { return timeRun(on); });
    std::printf("  records rendered %llu (expect 0)\n",
                static_cast<unsigned long long>(sink.rendered));
    if (sink.rendered != 0) {
        std::printf("FAIL: filtered sink rendered records\n");
        return false;
    }
    return true;
}

bool
auditLeg(const runner::SimConfig &config, Timing &timing)
{
    // The baseline is unaudited even when BFGTS_AUDIT=1 arms checks.
    runner::SimConfig off = config;
    off.audit = false;
    sim::AuditEngine engine;
    engine.setDryRun(true);
    runner::SimConfig on = off;
    on.audit = true;
    on.auditEngine = &engine;
    timing = measure(off, [&] { return timeRun(on); });
    return true;
}

bool
profLeg(const runner::SimConfig &off, Timing &timing)
{
    sim::Profiler real_profiler;
    runner::SimConfig profiled = off;
    profiled.profiler = &real_profiler;
    if (resultsString(off) != resultsString(profiled)) {
        std::printf("FAIL: profiled run changed deterministic results\n");
        return false;
    }
    sim::Profiler dry_profiler(&fakeClock);
    runner::SimConfig on = off;
    on.profiler = &dry_profiler;
    timing = measure(off, [&] { return timeRun(on); });
    return true;
}

std::string
qualityReport(const runner::SimConfig &config)
{
    sim::QualityRecorder recorder;
    runner::SimConfig recorded = config;
    recorded.quality = &recorder;
    runner::Simulation simulation(recorded);
    simulation.run();
    std::ostringstream os;
    sim::writeQualReport(os, "micro_observer_overhead", recorder.data());
    return os.str();
}

bool
qualityLeg(const runner::SimConfig &off, Timing &timing)
{
    sim::QualityRecorder purity_recorder;
    runner::SimConfig purity = off;
    purity.quality = &purity_recorder;
    if (resultsString(off) != resultsString(purity)) {
        std::printf("FAIL: recorded run changed deterministic results\n");
        return false;
    }
    if (qualityReport(off) != qualityReport(off)) {
        std::printf("FAIL: quality report differs across equal runs\n");
        return false;
    }
    // A fresh recorder per rep, so reps don't accumulate into each
    // other's ledgers.
    timing = measure(off, [&] {
        sim::QualityRecorder recorder;
        runner::SimConfig on = off;
        on.quality = &recorder;
        return timeRun(on);
    });
    return true;
}

struct Leg {
    const char *name;
    /** What the attached run is, for the report. */
    const char *onLabel;
    /** Quiet-machine budget, used when --tol is absent. */
    double tolerance;
    bool (*run)(const runner::SimConfig &off, Timing &timing);
};

const Leg kLegs[] = {
    {"trace", "filtered sink", 0.02, traceLeg},
    {"audit", "dry-run hooks", 0.02, auditLeg},
    {"prof", "dry-clock hooks", 0.02, profLeg},
    {"quality", "recorder on", 0.05, qualityLeg},
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json("micro_observer_overhead", argc, argv);

    double tol_override = -1.0;
    std::vector<const Leg *> legs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 < argc && argv[i + 1][0] != '-')
                ++i;
            continue;
        }
        char *end = nullptr;
        if (arg == "--tol" && i + 1 < argc) {
            tol_override = std::strtod(argv[++i], &end);
            if (*end == '\0' && tol_override >= 0.0)
                continue;
        } else {
            const auto it = std::find_if(
                std::begin(kLegs), std::end(kLegs),
                [&](const Leg &leg) { return arg == leg.name; });
            if (it != std::end(kLegs)) {
                legs.push_back(it);
                continue;
            }
        }
        std::fprintf(stderr, "usage: micro_observer_overhead "
                             "[trace|audit|prof|quality...] [--tol T] "
                             "[--json [FILE]]\n");
        return 2;
    }
    if (legs.empty()) {
        for (const Leg &leg : kLegs)
            legs.push_back(&leg);
    }

    runner::RunOptions options = bench::defaultOptions();
    // No quick-mode shrink here: this gate compares two wall times
    // against a small tolerance, and the fast sim core makes a 20-tx
    // rep too short to time reliably.
    options.txPerThread = 60;
    const runner::SimConfig off =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);

    bool ok = true;
    for (const Leg *leg : legs) {
        bench::banner(std::string("micro: observer hook overhead, ")
                      + leg->name);
        const double tolerance =
            tol_override >= 0.0 ? tol_override : leg->tolerance;
        Timing timing;
        if (!leg->run(off, timing)) {
            ok = false;
            continue;
        }
        const double overhead = timing.overhead;
        std::printf("  observer off     %8.1f ms\n", timing.off * 1e3);
        std::printf("  %-16s %8.1f ms\n", leg->onLabel, timing.on * 1e3);
        std::printf("  overhead         %+7.2f%%  (noise floor %.2f%%, "
                    "tolerance %.0f%%)\n",
                    100.0 * overhead, 100.0 * timing.noise,
                    100.0 * tolerance);
        json.addRow()
            .set("leg", leg->name)
            .set("offSeconds", timing.off)
            .set("onSeconds", timing.on)
            .set("overhead", overhead)
            .set("noise", timing.noise)
            .set("tolerance", tolerance);
        if (overhead > tolerance) {
            std::printf("FAIL: %s overhead above tolerance\n", leg->name);
            ok = false;
        }
    }
    if (!json.write())
        return 1;
    std::printf(ok ? "OK\n" : "FAIL\n");
    return ok ? 0 : 1;
}
