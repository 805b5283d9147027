/**
 * @file
 * Shared helpers for the table/figure regeneration benches.
 *
 * Every bench binary regenerates one table or figure of the paper:
 * it runs the relevant slice of the evaluation matrix and prints the
 * same rows/series the paper reports. Set BFGTS_QUICK=1 to shrink
 * the runs (fewer transactions per thread) for fast smoke runs.
 */

#ifndef BFGTS_BENCH_BENCH_UTIL_H
#define BFGTS_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment.h"
#include "runner/sweep.h"
#include "sim/json.h"
#include "sim/profiler.h"
#include "sim/stats.h"
#include "workloads/stamp.h"

namespace bench {

/** True when BFGTS_QUICK=1: shrink runs for smoke testing. */
inline bool
quickMode()
{
    const char *env = std::getenv("BFGTS_QUICK");
    return env != nullptr && env[0] == '1';
}

/** Default run options, shrunk in quick mode. */
inline runner::RunOptions
defaultOptions()
{
    runner::RunOptions options;
    if (quickMode())
        options.txPerThread = 20;
    return options;
}

/** Geometric mean of positive values; 0.0 on empty input (a bare
 *  division would put a silent NaN into reports). */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Arithmetic mean; 0.0 on empty input. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/** Print a banner naming the table/figure being regenerated. */
inline void
banner(const std::string &title)
{
    std::cout << "\n==== " << title << " ====\n\n";
}

/**
 * Sweep-engine options from argv and the environment:
 *   --jobs N              worker threads (default 1)
 *   --progress            per-cell progress lines on stderr
 *   BFGTS_SWEEP_CACHE=DIR on-disk result cache (default off)
 * Unknown arguments are ignored, so these compose with --json.
 */
inline runner::SweepOptions
sweepOptionsFromArgs(int argc, char **argv)
{
    runner::SweepOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc)
            options.jobs = std::atoi(argv[++i]);
        else if (arg == "--progress")
            options.progress = &std::cerr;
    }
    if (options.jobs < 1)
        options.jobs = 1;
    const char *cache = std::getenv("BFGTS_SWEEP_CACHE");
    if (cache != nullptr && cache[0] != '\0')
        options.cacheDir = cache;
    return options;
}

/**
 * Unwrap one sweep result: return the SimResults of cell @p index,
 * aborting the bench with the cell's error when it failed (benches
 * have no sensible partial output).
 */
inline const runner::SimResults &
sweepCellOrDie(const std::vector<runner::SweepCellResult> &results,
               std::size_t index)
{
    const runner::SweepCellResult &result = results.at(index);
    if (!result.ok) {
        std::cerr << "sweep cell " << index
                  << " failed: " << result.error << "\n";
        std::exit(1);
    }
    return result.results;
}

/**
 * Machine-readable bench output (docs/observability.md).
 *
 * Benches that support it construct a JsonReporter from argv; when
 * the binary was invoked with `--json [FILE]` the reporter collects
 * one row of named cells per result and write() emits a
 * schema-versioned bfgts-obs-v1 "bench" document (default file
 * BENCH_<name>.json). Without --json everything is a no-op, so the
 * human-readable tables stay the default interface.
 */
class JsonReporter
{
  public:
    JsonReporter(std::string bench_name, int argc, char **argv)
        : name_(std::move(bench_name))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg != "--json")
                continue;
            enabled_ = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                path_ = argv[++i];
        }
        if (enabled_ && path_.empty())
            path_ = "BENCH_" + name_ + ".json";
    }

    bool enabled() const { return enabled_; }
    const std::string &path() const { return path_; }

    /** One result row under construction; cells keep call order. */
    class Row
    {
      public:
        Row &
        set(const std::string &key, const std::string &v)
        {
            cells_.push_back({key, false, 0.0, v});
            return *this;
        }

        Row &
        set(const std::string &key, const char *v)
        {
            return set(key, std::string(v));
        }

        Row &
        set(const std::string &key, double v)
        {
            cells_.push_back({key, true, v, {}});
            return *this;
        }

        Row &
        set(const std::string &key, std::uint64_t v)
        {
            return set(key, static_cast<double>(v));
        }

      private:
        friend class JsonReporter;
        struct Cell {
            std::string key;
            bool isNumber;
            double num;
            std::string str;
        };
        std::vector<Cell> cells_;
    };

    /** Append and return a fresh row (no-op storage when disabled). */
    Row &
    addRow()
    {
        rows_.emplace_back();
        return rows_.back();
    }

    /**
     * Write the document (if --json was given). Returns false and
     * prints to stderr when the file cannot be opened.
     */
    bool
    write() const
    {
        if (!enabled_)
            return true;
        std::ofstream os(path_);
        if (!os) {
            std::cerr << "cannot open " << path_ << "\n";
            return false;
        }
        sim::JsonWriter jw(os);
        jw.beginObject();
        jw.kv("schema", "bfgts-obs-v1");
        jw.kv("kind", "bench");
        jw.kv("name", name_);
        jw.kv("git", sim::buildGitDescribe());
        jw.beginObject("options");
        jw.kv("quick", quickMode());
        jw.endObject();
        // Host-throughput summary of every simulation this process
        // ran (sim::hostRunTotals). Wall-clock data: these two keys
        // are nondeterministic by design and ignored by the
        // tools/report_diff.py --exact and --tolerance modes;
        // --host-band reads *only* them.
        const sim::HostRunTotals host = sim::hostRunTotals();
        jw.beginArray("rows");
        for (const Row &row : rows_) {
            jw.beginObject();
            for (const Row::Cell &cell : row.cells_) {
                if (cell.isNumber)
                    jw.kv(cell.key, cell.num);
                else
                    jw.kv(cell.key, cell.str);
            }
            jw.kv("wall_ns_per_cycle", host.wallNsPerCycle());
            jw.kv("events_per_sec", host.eventsPerSec());
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        std::cout << "wrote " << path_ << "\n";
        return true;
    }

  private:
    std::string name_;
    std::string path_;
    bool enabled_ = false;
    std::vector<Row> rows_;
};

} // namespace bench

#endif // BFGTS_BENCH_BENCH_UTIL_H
