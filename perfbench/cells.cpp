/**
 * @file
 * Cell runner of the repository benchmark (perfbench/run.py drives it).
 *
 * A benchmark workload is a fixed list of simulation cells run one at
 * a time in this process. A round runs every cell of the workload once
 * in one of two passes:
 *
 *  - untraced: plain runner::Simulation, no profiler, no decorators,
 *    no audit. It gives the end-to-end host-time metrics.
 *  - traced: the same cells with sim::Profiler attached and both
 *    SimConfig seams decorated (managerFactory, workloadFactory) by
 *    call counters and host-clock timers. It gives the per-layer
 *    metrics.
 *
 * Every cell run is checked: it must finish, commit threads x tx/thread
 * transactions, and dump byte-identical statistics to the first run of
 * the same cell. Because the passes alternate, that last check proves
 * the profiler and the decorators do not perturb the model.
 *
 * Usage:
 *   perfbench_cells --workload NAME --seed N --seconds S --trace 0|1
 *                   [--scale F] [--audit]
 *
 * With --trace 0 the untraced pass repeats for S seconds and one traced
 * round follows (for the check and the event counts). With --trace 1
 * untraced and traced rounds alternate for S seconds. --scale shrinks
 * the transactions per thread (the benchmark's own test uses it);
 * --audit instead runs every cell once under the invariant audit
 * engine and reports its violations. The output is one JSON document
 * on stdout with the raw per-round and per-cell measurements; run.py
 * turns it into metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cm/factory.h"
#include "runner/simulation.h"
#include "sim/audit.h"
#include "sim/host_clock.h"
#include "sim/json.h"
#include "sim/logging.h"
#include "sim/profiler.h"
#include "workloads/stamp.h"

namespace {

// ---- workloads ---------------------------------------------------------

struct Cell {
    const char *stamp;
    cm::CmKind cm;
    int cpus;
    int txPerThread;
};

struct WorkloadSpec {
    const char *name;
    std::vector<Cell> cells;
};

/** The benchmark's workloads; perfbench/NOTES.md says why each. */
const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"paper16_bfgts",
         {{"Intruder", cm::CmKind::BfgtsHw, 16, 300},
          {"Kmeans", cm::CmKind::BfgtsHw, 16, 300},
          {"Genome", cm::CmKind::BfgtsHw, 16, 200},
          {"Vacation", cm::CmKind::BfgtsHw, 16, 300}}},
        {"labyrinth16_backoff",
         {{"Labyrinth", cm::CmKind::Backoff, 16, 100}}},
        {"scale64_bfgts",
         {{"Intruder", cm::CmKind::BfgtsHw, 64, 12}}},
    };
    return specs;
}

constexpr int kThreadsPerCpu = 4;

// ---- seam decorators (traced pass only) --------------------------------

/** Call count and inclusive host time of one seam method. */
struct SeamTiming {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** Charges the enclosing scope to a SeamTiming. */
class SeamScope
{
  public:
    explicit SeamScope(SeamTiming &timing)
        : timing_(timing), start_(sim::hostNowNs())
    {
    }

    ~SeamScope()
    {
        timing_.ns += sim::hostNowNs() - start_;
        ++timing_.calls;
    }

    SeamScope(const SeamScope &) = delete;
    SeamScope &operator=(const SeamScope &) = delete;

  private:
    SeamTiming &timing_;
    std::uint64_t start_;
};

struct CmTimings {
    SeamTiming begin;
    SeamTiming commit;
    SeamTiming abort;
    SeamTiming conflict;
};

/**
 * Times the CM hooks of a concrete manager. It derives from the
 * manager instead of holding it: the simulation dynamic_casts its CM
 * to ContentionManagerBase and BfgtsManager for the stats dump, so a
 * forwarding wrapper would change the dumped statistics.
 */
template <class Manager>
class TimedManager final : public Manager
{
  public:
    template <class... Args>
    explicit TimedManager(CmTimings &timings, Args &&...args)
        : Manager(std::forward<Args>(args)...), timings_(timings)
    {
    }

    cm::BeginDecision
    onTxBegin(const cm::TxInfo &tx) override
    {
        SeamScope scope(timings_.begin);
        return Manager::onTxBegin(tx);
    }

    cm::CmCost
    onConflictDetected(const cm::TxInfo &tx,
                       const cm::TxInfo &other) override
    {
        SeamScope scope(timings_.conflict);
        return Manager::onConflictDetected(tx, other);
    }

    cm::AbortResponse
    onTxAbort(const cm::TxInfo &tx, const cm::TxInfo &other) override
    {
        SeamScope scope(timings_.abort);
        return Manager::onTxAbort(tx, other);
    }

    cm::CmCost
    onTxCommit(const cm::TxInfo &tx,
               const std::vector<mem::Addr> &rw_lines) override
    {
        SeamScope scope(timings_.commit);
        return Manager::onTxCommit(tx, rw_lines);
    }

  private:
    CmTimings &timings_;
};

/** cm::makeManager for the benchmark's managers, with timed hooks. */
runner::ManagerFactory
timedManagerFactory(cm::CmKind kind, const cm::CmTuning &tuning,
                    CmTimings &timings)
{
    return [kind, tuning, &timings](
               int num_cpus, const htm::TxIdSpace &ids,
               const cm::Services &services)
               -> std::unique_ptr<cm::ContentionManager> {
        switch (kind) {
          case cm::CmKind::Backoff:
            return std::make_unique<TimedManager<cm::BackoffManager>>(
                timings, num_cpus, services, tuning.backoff);
          case cm::CmKind::BfgtsHw: {
            cm::BfgtsConfig config = tuning.bfgts;
            config.variant = cm::BfgtsVariant::Hw;
            return std::make_unique<TimedManager<cm::BfgtsManager>>(
                timings, num_cpus, ids, services, config);
          }
          default:
            sim_fatal("no timed decorator for manager %s",
                      cm::cmKindName(kind));
        }
    };
}

/** Times Workload::next() of a STAMP workload. */
class TimedWorkload final : public workloads::Workload
{
  public:
    TimedWorkload(std::unique_ptr<workloads::Workload> inner,
                  SeamTiming &next)
        : inner_(std::move(inner)), next_(next)
    {
    }

    std::string name() const override { return inner_->name(); }
    int numStaticTx() const override { return inner_->numStaticTx(); }
    int txPerThread() const override { return inner_->txPerThread(); }

    workloads::TxDescriptor
    next(sim::ThreadId thread, sim::Rng &rng) override
    {
        SeamScope scope(next_);
        return inner_->next(thread, rng);
    }

  private:
    std::unique_ptr<workloads::Workload> inner_;
    SeamTiming &next_;
};

runner::WorkloadFactory
timedWorkloadFactory(const std::string &stamp, SeamTiming &next)
{
    return [stamp, &next](int num_threads) {
        return std::make_unique<TimedWorkload>(
            workloads::makeStampWorkload(stamp, num_threads), next);
    };
}

/** Everything the traced pass attaches to one cell run. */
struct Tracing {
    sim::Profiler profiler;
    CmTimings cm;
    SeamTiming next;
};

// ---- one cell run ------------------------------------------------------

struct CellRun {
    std::string error;
    std::uint64_t setupNs = 0;
    std::uint64_t runNs = 0;
    runner::SimResults results;
    std::string stats;
};

CellRun
runCell(const Cell &cell, std::uint64_t seed, int tx_per_thread,
        Tracing *tracing, sim::AuditEngine *audit)
{
    runner::SimConfig config;
    config.workload = cell.stamp;
    config.cm = cell.cm;
    config.numCpus = cell.cpus;
    config.threadsPerCpu = kThreadsPerCpu;
    config.seed = seed;
    config.txPerThreadOverride = tx_per_thread;
    config.audit = audit != nullptr;
    config.auditEngine = audit;
    if (tracing != nullptr) {
        config.profiler = &tracing->profiler;
        config.workloadFactory =
            timedWorkloadFactory(cell.stamp, tracing->next);
        config.managerFactory =
            timedManagerFactory(cell.cm, config.tuning, tracing->cm);
    }

    CellRun out;
    try {
        const std::uint64_t t0 = sim::hostNowNs();
        runner::Simulation simulation(config);
        const std::uint64_t t1 = sim::hostNowNs();
        out.results = simulation.run();
        const std::uint64_t t2 = sim::hostNowNs();
        out.setupNs = t1 - t0;
        out.runNs = t2 - t1;

        std::ostringstream os;
        sim::JsonWriter jw(os, 0);
        jw.beginObject();
        simulation.dumpStatsJson(jw);
        jw.endObject();
        out.stats = os.str();
    } catch (const std::exception &e) {
        out.error = e.what();
        return out;
    }

    const std::uint64_t expected =
        static_cast<std::uint64_t>(cell.cpus) * kThreadsPerCpu
        * static_cast<std::uint64_t>(tx_per_thread);
    if (out.results.commits != expected) {
        out.error = "committed " + std::to_string(out.results.commits)
                  + " transactions, expected "
                  + std::to_string(expected);
    }
    return out;
}

std::string
cellName(const Cell &cell)
{
    return std::string(cell.stamp) + "/" + cm::cmKindName(cell.cm) + "/"
         + std::to_string(cell.cpus) + "x"
         + std::to_string(kThreadsPerCpu);
}

// ---- rounds ------------------------------------------------------------

/** Traced-pass layer totals of one round, summed over its cells. */
struct Layers {
    sim::Profiler::Data profile;
    CmTimings cm;
    SeamTiming next;

    void
    add(const Tracing &t)
    {
        const sim::Profiler::Data &d = t.profiler.data();
        profile.wallNs += d.wallNs;
        profile.events += d.events;
        profile.ticks += d.ticks;
        for (int p = 0; p < sim::Profiler::kNumPhases; ++p) {
            const auto i = static_cast<std::size_t>(p);
            profile.phaseNs[i] += d.phaseNs[i];
            profile.phaseCalls[i] += d.phaseCalls[i];
        }
        const auto sum = [](SeamTiming &into, const SeamTiming &from) {
            into.calls += from.calls;
            into.ns += from.ns;
        };
        sum(cm.begin, t.cm.begin);
        sum(cm.commit, t.cm.commit);
        sum(cm.abort, t.cm.abort);
        sum(cm.conflict, t.cm.conflict);
        sum(next, t.next);
    }
};

struct Round {
    bool traced = false;
    std::uint64_t setupNs = 0;
    std::uint64_t runNs = 0;
    Layers layers;
};

/** Per-cell reference: the first run's results and stats bytes. */
struct CellRecord {
    bool haveReference = false;
    runner::SimResults results;
    std::string stats;
    std::uint64_t events = 0;
};

class Bench
{
  public:
    Bench(const WorkloadSpec &spec, std::uint64_t seed, double scale)
        : spec_(spec), seed_(seed), records_(spec.cells.size())
    {
        for (const Cell &cell : spec.cells) {
            txPerThread_.push_back(std::max(
                1, static_cast<int>(std::lround(cell.txPerThread
                                                * scale))));
        }
    }

    /** Run every cell once in one pass and check each run. */
    void
    round(bool traced)
    {
        Round r;
        r.traced = traced;
        for (std::size_t c = 0; c < spec_.cells.size(); ++c) {
            std::unique_ptr<Tracing> tracing;
            if (traced)
                tracing = std::make_unique<Tracing>();
            const CellRun run = runCell(spec_.cells[c], seed_,
                                        txPerThread_[c], tracing.get(),
                                        nullptr);
            check(c, run);
            r.setupNs += run.setupNs;
            r.runNs += run.runNs;
            if (traced) {
                r.layers.add(*tracing);
                records_[c].events = tracing->profiler.data().events;
            }
        }
        rounds_.push_back(r);
    }

    /** Run every cell once under the audit engine. */
    void
    audit()
    {
        for (std::size_t c = 0; c < spec_.cells.size(); ++c) {
            sim::AuditEngine engine;
            engine.setMode(sim::AuditEngine::Mode::Collect);
            const CellRun run = runCell(spec_.cells[c], seed_,
                                        txPerThread_[c], nullptr,
                                        &engine);
            check(c, run);
            auditChecks_ += engine.checksRun();
            auditViolations_ += engine.violationCount();
            for (const sim::AuditViolation &v : engine.violations())
                errors_.push_back(cellName(spec_.cells[c]) + ": audit "
                                  + v.check + ": " + v.message);
        }
    }

    void
    writeJson(std::ostream &os, std::uint64_t peak_rss_bytes) const
    {
        sim::JsonWriter jw(os, 0);
        jw.beginObject();
        jw.kv("workload", spec_.name);
        jw.kv("seed", seed_);
        jw.kv("attempted", attempted_);
        jw.kv("failed", failed_);
        jw.kv("peak_rss_bytes", peak_rss_bytes);
        jw.kv("audit_checks", auditChecks_);
        jw.kv("audit_violations", auditViolations_);
        jw.beginArray("errors");
        for (const std::string &e : errors_)
            jw.value(e);
        jw.endArray();

        jw.beginArray("cells");
        for (std::size_t c = 0; c < spec_.cells.size(); ++c) {
            const CellRecord &rec = records_[c];
            const runner::SimResults &r = rec.results;
            jw.beginObject();
            jw.kv("name", cellName(spec_.cells[c]));
            jw.kv("tx_per_thread", txPerThread_[c]);
            jw.kv("events", rec.events);
            jw.kv("runtime", static_cast<std::uint64_t>(r.runtime));
            jw.kv("commits", r.commits);
            jw.kv("aborts", r.aborts);
            jw.kv("serializations", r.serializations);
            jw.kv("true_positives", r.prediction.truePositives);
            jw.kv("false_positives", r.prediction.falsePositives);
            jw.kv("false_negatives", r.prediction.falseNegatives);
            jw.key("stats");
            jw.valueRaw(rec.stats.empty() ? "{}" : rec.stats);
            jw.endObject();
        }
        jw.endArray();

        jw.beginArray("rounds");
        for (const Round &r : rounds_) {
            jw.beginObject();
            jw.kv("traced", r.traced);
            jw.kv("setup_ns", r.setupNs);
            jw.kv("run_ns", r.runNs);
            if (r.traced)
                writeLayers(jw, r.layers);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        os << "\n";
    }

  private:
    void
    check(std::size_t c, const CellRun &run)
    {
        ++attempted_;
        CellRecord &rec = records_[c];
        std::string error = run.error;
        if (error.empty() && !rec.haveReference) {
            rec.haveReference = true;
            rec.results = run.results;
            rec.stats = run.stats;
        } else if (error.empty() && run.stats != rec.stats) {
            error = "statistics differ from the cell's first run";
        }
        if (!error.empty()) {
            ++failed_;
            errors_.push_back(cellName(spec_.cells[c]) + ": " + error);
        }
    }

    static void
    writeLayers(sim::JsonWriter &jw, const Layers &l)
    {
        const sim::Profiler::Data &d = l.profile;
        jw.beginObject("layers");
        jw.kv("profile_wall_ns", d.wallNs);
        jw.kv("events", d.events);
        jw.kv("other_ns", d.otherNs());
        for (int p = 0; p < sim::Profiler::kNumPhases; ++p) {
            const auto i = static_cast<std::size_t>(p);
            const std::string name = sim::Profiler::phaseName(p);
            jw.kv(name + "_ns", d.phaseNs[i]);
            jw.kv(name + "_calls", d.phaseCalls[i]);
        }
        const auto seam = [&jw](const char *name, const SeamTiming &t) {
            jw.kv(std::string(name) + "_ns", t.ns);
            jw.kv(std::string(name) + "_calls", t.calls);
        };
        seam("cm_begin", l.cm.begin);
        seam("cm_commit", l.cm.commit);
        seam("cm_abort", l.cm.abort);
        seam("cm_conflict", l.cm.conflict);
        seam("workload_next", l.next);
        jw.endObject();
    }

    const WorkloadSpec &spec_;
    std::uint64_t seed_;
    std::vector<int> txPerThread_;
    std::vector<CellRecord> records_;
    std::vector<Round> rounds_;
    std::vector<std::string> errors_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t auditChecks_ = 0;
    std::uint64_t auditViolations_ = 0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--audit]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    int trace = 0;
    double scale = 1.0;
    bool audit = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                workload = next();
            else if (arg == "--seed")
                seed = std::stoull(next());
            else if (arg == "--seconds")
                seconds = std::stod(next());
            else if (arg == "--trace")
                trace = std::stoi(next());
            else if (arg == "--scale")
                scale = std::stod(next());
            else if (arg == "--audit")
                audit = true;
            else
                usage(argv[0]);
        } catch (const std::exception &) {
            // stoull/stod/stoi reject a malformed or out-of-range number.
            usage(argv[0]);
        }
    }

    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : workloadSpecs()) {
        if (workload == s.name)
            spec = &s;
    }
    if (spec == nullptr || (trace != 0 && trace != 1) || !(scale > 0.0)
        || !(seconds >= 0.0 && seconds <= 3600.0))
        usage(argv[0]);

    Bench bench(*spec, seed, scale);
    std::uint64_t peak_rss = 0;
    if (audit) {
        bench.audit();
    } else {
        // At least three rounds of each measured pass, so every median
        // has a middle.
        constexpr int kMinRounds = 3;
        const std::uint64_t budget_ns =
            static_cast<std::uint64_t>(seconds * 1e9);
        const std::uint64_t start = sim::hostNowNs();
        for (int n = 0;
             n < kMinRounds || sim::hostNowNs() - start < budget_ns;
             ++n) {
            bench.round(false);
            if (trace == 1)
                bench.round(true);
        }
        // Peak RSS of the untraced pass: read before any traced round
        // of the --trace 0 mode adds the profiler's buffers.
        peak_rss = sim::hostPeakRssBytes();
        if (trace == 0)
            bench.round(true);
    }
    bench.writeJson(std::cout, peak_rss);
    return 0;
}
