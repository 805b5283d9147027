#include "farm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "sim/host_clock.h"
#include "sim/json.h"
#include "sim/json_parse.h"

namespace runner {

namespace {

// ---- work-stealing queue files ---------------------------------------
//
// Queue layout (one directory shared by every worker):
//   manifest        matrix identity; all workers must agree
//   c<i>.lease      created O_CREAT|O_EXCL by the claiming worker
//   c<i>.done       published (tmp+rename) when cell <i> completed
//
// A lease without a done marker whose mtime is older than the
// staleness bound belonged to a crashed worker and may be reclaimed.
// Reclaim itself is made single-winner by an atomic rename of the
// stale lease to a per-claimant name.

std::string
leasePath(const std::string &dir, std::size_t index)
{
    return dir + "/c" + std::to_string(index) + ".lease";
}

std::string
donePath(const std::string &dir, std::size_t index)
{
    return dir + "/c" + std::to_string(index) + ".done";
}

/** Publish @p body at @p path atomically (unique temp + rename). */
void
publishFile(const std::string &path, const std::string &body)
{
    // pid alone is shared by in-process workers, which would then
    // truncate each other's temp file mid-publish.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(getpid())
                            + "." + std::to_string(serial++);
    {
        std::ofstream os(tmp);
        if (!os)
            return;
        os << body;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

/**
 * Create-or-verify the queue manifest. Racing creators publish
 * identical bytes, so rename order does not matter; a worker whose
 * matrix disagrees with the established manifest must not proceed.
 */
void
ensureQueueManifest(const std::string &dir, const std::string &digest,
                    std::size_t total_cells)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/manifest";
    const std::string expected = "bfgts-farm-queue-v1\ndigest "
                                 + digest + "\ntotalCells "
                                 + std::to_string(total_cells) + "\n";
    if (!std::filesystem::exists(path))
        publishFile(path, expected);
    std::ifstream is(path);
    std::ostringstream actual;
    actual << is.rdbuf();
    if (actual.str() != expected) {
        throw std::runtime_error(
            "farm: steal queue " + dir
            + " belongs to a different sweep matrix (manifest "
              "mismatch)");
    }
}

enum class Claim { Won, Done, Busy };

/**
 * Try to claim cell @p index. Won means this worker owns the cell;
 * Done means another worker already completed it; Busy means another
 * worker holds a fresh lease. Stale leases (mtime older than
 * @p stale_sec) are reclaimed via an atomic rename, then the O_EXCL
 * create is retried with exponential backoff, up to @p max_retries
 * times before conceding Busy.
 */
Claim
tryClaimCell(const std::string &dir, std::size_t index, int stale_sec,
             int max_retries)
{
    const std::string lease = leasePath(dir, index);
    const std::string done = donePath(dir, index);
    for (int attempt = 0; attempt <= max_retries; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1L << attempt));
        }
        if (std::filesystem::exists(done))
            return Claim::Done;
        const int fd =
            ::open(lease.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd >= 0) {
            const std::string body =
                "pid " + std::to_string(getpid()) + "\n";
            // Best-effort owner stamp; the claim is the file itself.
            (void)!::write(fd, body.data(), body.size());
            ::close(fd);
            // The done marker may have been published between the
            // check above and the (reclaimed) create.
            if (std::filesystem::exists(done))
                return Claim::Done;
            return Claim::Won;
        }
        // Lease exists: fresh (live owner), stale (crashed owner),
        // or already gone again (lost a race). Only the stale case
        // lets us proceed, through a single-winner rename.
        std::error_code ec;
        const auto mtime = std::filesystem::last_write_time(lease, ec);
        if (ec)
            continue; // lease vanished under us; retry the create
        const auto age =
            std::chrono::duration_cast<std::chrono::seconds>(
                sim::hostFileTimeNow() - mtime)
                .count();
        if (age < stale_sec)
            return Claim::Busy;
        const std::string reclaim = lease + ".reclaim."
                                    + std::to_string(getpid()) + "."
                                    + std::to_string(attempt);
        std::filesystem::rename(lease, reclaim, ec);
        if (ec)
            continue; // another claimant won the reclaim; retry
        std::filesystem::remove(reclaim, ec);
    }
    return Claim::Busy;
}

void
accumulate(SweepStats *into, const SweepStats &s)
{
    into->executed += s.executed;
    into->cacheHits += s.cacheHits;
    into->errors += s.errors;
    into->cacheRaces += s.cacheRaces;
}

void
rejectCustomCells(const std::vector<SweepCell> &cells)
{
    for (const SweepCell &cell : cells) {
        if (cell.custom) {
            throw std::invalid_argument(
                "farm: custom cells have no configuration to digest "
                "and cannot be sharded");
        }
    }
}

} // namespace

// ---- Farm ------------------------------------------------------------

Farm::Farm(FarmOptions options) : options_(std::move(options))
{
}

std::vector<std::size_t>
Farm::shardIndices(std::size_t cell_count, int shard_index,
                   int shard_count)
{
    if (shard_count < 1 || shard_index < 0
        || shard_index >= shard_count) {
        throw std::invalid_argument("farm: shard index "
                                    + std::to_string(shard_index)
                                    + "/"
                                    + std::to_string(shard_count)
                                    + " out of range");
    }
    const auto shards = static_cast<std::size_t>(shard_count);
    const auto shard = static_cast<std::size_t>(shard_index);
    const std::size_t base = cell_count / shards;
    const std::size_t extra = cell_count % shards;
    // The first `extra` shards take one extra cell; slices stay
    // contiguous and ascending, so concatenating shards 0..N-1
    // reproduces [0, cell_count) exactly.
    const std::size_t begin =
        shard * base + std::min(shard, extra);
    const std::size_t size = base + (shard < extra ? 1 : 0);
    std::vector<std::size_t> indices;
    indices.reserve(size);
    for (std::size_t i = 0; i < size; ++i)
        indices.push_back(begin + i);
    return indices;
}

std::string
Farm::matrixDigest(const std::vector<SweepCell> &cells)
{
    rejectCustomCells(cells);
    std::string all;
    for (const SweepCell &cell : cells) {
        all += SweepRunner::cellKey(cell);
        all += '\n';
    }
    all += "cells=" + std::to_string(cells.size());
    return sweepDigestHex(all);
}

std::vector<SweepCellResult>
Farm::run(const std::vector<SweepCell> &cells)
{
    rejectCustomCells(cells);
    if (options_.sweep.profile || options_.sweep.quality) {
        throw std::invalid_argument(
            "farm: profile/quality side channels are not supported "
            "in farm runs (partial side reports do not merge)");
    }
    digest_ = matrixDigest(cells);
    totalCells_ = cells.size();
    stats_ = SweepStats{};
    claimed_.clear();
    claimedCells_.clear();
    results_.clear();

    if (options_.stealDir.empty()) {
        claimed_ = shardIndices(cells.size(), options_.shardIndex,
                                options_.shardCount);
        claimedCells_.reserve(claimed_.size());
        for (const std::size_t index : claimed_)
            claimedCells_.push_back(cells[index]);
        SweepRunner runner(options_.sweep);
        results_ = runner.run(claimedCells_);
        stats_ = runner.stats();
        return results_;
    }

    // Work-stealing: claim up to `jobs` cells per pass, run the
    // batch, publish done markers, rescan. A pass that claims
    // nothing means every remaining cell is done or owned by a live
    // worker -- this worker is finished.
    ensureQueueManifest(options_.stealDir, digest_, totalCells_);
    const std::size_t batch = static_cast<std::size_t>(
        std::max(1, options_.sweep.jobs));
    std::vector<char> settled(cells.size(), 0);
    std::vector<std::pair<std::size_t, SweepCellResult>> collected;
    for (;;) {
        std::vector<std::size_t> mine;
        for (std::size_t i = 0;
             i < cells.size() && mine.size() < batch; ++i) {
            if (settled[i])
                continue;
            switch (tryClaimCell(options_.stealDir, i,
                                 options_.stealStaleSec,
                                 options_.stealMaxRetries)) {
              case Claim::Won:
                mine.push_back(i);
                settled[i] = 1;
                break;
              case Claim::Done:
                settled[i] = 1;
                break;
              case Claim::Busy:
                break;
            }
        }
        if (mine.empty())
            break;
        std::vector<SweepCell> batch_cells;
        batch_cells.reserve(mine.size());
        for (const std::size_t index : mine)
            batch_cells.push_back(cells[index]);
        SweepRunner runner(options_.sweep);
        std::vector<SweepCellResult> batch_results =
            runner.run(batch_cells);
        accumulate(&stats_, runner.stats());
        for (std::size_t k = 0; k < mine.size(); ++k) {
            publishFile(donePath(options_.stealDir, mine[k]),
                        "done\n");
            collected.emplace_back(mine[k],
                                   std::move(batch_results[k]));
        }
    }
    std::sort(collected.begin(), collected.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (auto &entry : collected) {
        claimed_.push_back(entry.first);
        claimedCells_.push_back(cells[entry.first]);
        results_.push_back(std::move(entry.second));
    }
    return results_;
}

void
Farm::writeReport(std::ostream &os, const std::string &name) const
{
    const bool steal = !options_.stealDir.empty();
    sim::JsonWriter jw(os);
    jw.beginObject();
    writeSweepReportPreamble(
        jw, name, sim::buildGitDescribe(), sim::buildGitDirty(),
        static_cast<std::uint64_t>(claimed_.size()));
    jw.beginObject("shard");
    jw.kv("matrixDigest", digest_);
    jw.kv("mode", steal ? "steal" : "static");
    jw.kv("shardIndex", steal ? -1 : options_.shardIndex);
    jw.kv("shardCount", steal ? 0 : options_.shardCount);
    jw.kv("totalCells", static_cast<std::uint64_t>(totalCells_));
    jw.beginArray("cellRanges");
    std::size_t i = 0;
    while (i < claimed_.size()) {
        std::size_t j = i + 1;
        while (j < claimed_.size()
               && claimed_[j] == claimed_[j - 1] + 1)
            ++j;
        jw.beginArray();
        jw.value(static_cast<std::uint64_t>(claimed_[i]));
        jw.value(static_cast<std::uint64_t>(claimed_[j - 1] + 1));
        jw.endArray();
        i = j;
    }
    jw.endArray();
    jw.endObject();
    jw.beginArray("cells");
    for (std::size_t k = 0; k < claimed_.size(); ++k)
        writeSweepCellJson(jw, claimedCells_[k], results_[k]);
    jw.endArray();
    jw.endObject();
}

// ---- merge -----------------------------------------------------------

namespace {

/** Validation state of one parsed partial report. */
struct Partial {
    std::string path;
    sim::JsonValue doc;
    std::string digest;
    std::string name;
    std::string git;
    bool gitDirty = false;
    std::uint64_t totalCells = 0;
    /** [start, end) global index ranges, ascending. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    const sim::JsonValue *cells = nullptr;
};

bool
mergeFail(std::string *error, const std::string &what)
{
    if (error)
        *error = "merge-reports: " + what;
    return false;
}

const sim::JsonValue *
memberOfKind(const sim::JsonValue &doc, const std::string &key,
             sim::JsonValue::Kind kind)
{
    const sim::JsonValue *v = doc.find(key);
    return (v != nullptr && v->kind == kind) ? v : nullptr;
}

bool
loadPartial(const std::string &path, Partial *out,
            std::string *error)
{
    out->path = path;
    std::ifstream is(path);
    if (!is)
        return mergeFail(error, path + ": cannot open");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string parse_error;
    if (!sim::parseJson(buffer.str(), &out->doc, &parse_error))
        return mergeFail(error, path + ": " + parse_error);

    const sim::JsonValue &doc = out->doc;
    const auto *schema =
        memberOfKind(doc, "schema", sim::JsonValue::Kind::String);
    const auto *kind =
        memberOfKind(doc, "kind", sim::JsonValue::Kind::String);
    if (schema == nullptr || schema->text != "bfgts-sweep-v1"
        || kind == nullptr || kind->text != "sweep") {
        return mergeFail(error,
                         path + ": not a bfgts-sweep-v1 report");
    }
    const auto *name =
        memberOfKind(doc, "name", sim::JsonValue::Kind::String);
    const auto *git =
        memberOfKind(doc, "git", sim::JsonValue::Kind::String);
    const auto *dirty =
        memberOfKind(doc, "gitDirty", sim::JsonValue::Kind::Bool);
    if (name == nullptr || git == nullptr || dirty == nullptr)
        return mergeFail(error, path + ": missing report header");
    out->name = name->text;
    out->git = git->text;
    out->gitDirty = dirty->boolean;

    const auto *shard =
        memberOfKind(doc, "shard", sim::JsonValue::Kind::Object);
    if (shard == nullptr) {
        return mergeFail(error,
                         path
                             + ": no shard manifest (already a "
                               "merged or single-machine report?)");
    }
    const auto *digest = memberOfKind(*shard, "matrixDigest",
                                      sim::JsonValue::Kind::String);
    const sim::JsonValue *total = shard->find("totalCells");
    const auto *ranges = memberOfKind(*shard, "cellRanges",
                                      sim::JsonValue::Kind::Array);
    if (digest == nullptr || total == nullptr || ranges == nullptr
        || !total->asU64(&out->totalCells)) {
        return mergeFail(error, path + ": malformed shard manifest");
    }
    out->digest = digest->text;
    std::uint64_t prev_end = 0;
    for (const sim::JsonValue &range : ranges->items) {
        std::uint64_t start = 0, end = 0;
        if (!range.isArray() || range.items.size() != 2
            || !range.items[0].asU64(&start)
            || !range.items[1].asU64(&end)) {
            return mergeFail(error, path + ": malformed cell range");
        }
        if (start >= end || end > out->totalCells
            || (!out->ranges.empty() && start < prev_end)) {
            return mergeFail(error,
                             path + ": cell ranges out of order or "
                                    "out of bounds");
        }
        out->ranges.emplace_back(start, end);
        prev_end = end;
    }

    out->cells =
        memberOfKind(doc, "cells", sim::JsonValue::Kind::Array);
    if (out->cells == nullptr)
        return mergeFail(error, path + ": missing cells array");
    std::uint64_t covered = 0;
    for (const auto &range : out->ranges)
        covered += range.second - range.first;
    std::uint64_t cell_count = 0;
    const sim::JsonValue *count = doc.find("cellCount");
    if (count == nullptr || !count->asU64(&cell_count)
        || cell_count != out->cells->items.size()
        || cell_count != covered) {
        return mergeFail(error,
                         path + ": cellCount, cells array, and "
                                "shard ranges disagree");
    }
    return true;
}

} // namespace

bool
mergeSweepReports(const std::vector<std::string> &paths,
                  std::ostream &os, std::string *error)
{
    if (paths.empty())
        return mergeFail(error, "no input reports");
    std::vector<Partial> partials(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (!loadPartial(paths[i], &partials[i], error))
            return false;
    }
    const Partial &first = partials.front();
    for (const Partial &p : partials) {
        if (p.digest != first.digest || p.totalCells != first.totalCells)
            return mergeFail(error,
                             p.path + ": matrix digest/size differs "
                                      "from "
                                 + first.path);
        if (p.name != first.name || p.git != first.git
            || p.gitDirty != first.gitDirty) {
            return mergeFail(error,
                             p.path + ": report name/git differs "
                                      "from "
                                 + first.path);
        }
    }

    // Place every partial's cells into their global slots; overlap
    // and coverage failures name the first offending index.
    std::vector<const sim::JsonValue *> slots(first.totalCells,
                                              nullptr);
    for (const Partial &p : partials) {
        std::size_t next = 0;
        for (const auto &range : p.ranges) {
            for (std::uint64_t index = range.first;
                 index < range.second; ++index) {
                if (slots[index] != nullptr) {
                    return mergeFail(
                        error, p.path + ": cell "
                                   + std::to_string(index)
                                   + " already covered by another "
                                     "shard");
                }
                slots[index] = &p.cells->items[next++];
            }
        }
    }
    for (std::size_t index = 0; index < slots.size(); ++index) {
        if (slots[index] == nullptr) {
            return mergeFail(error,
                             "cell " + std::to_string(index)
                                 + " covered by no shard (incomplete "
                                   "farm run?)");
        }
    }

    sim::JsonWriter jw(os);
    jw.beginObject();
    writeSweepReportPreamble(jw, first.name, first.git,
                             first.gitDirty, first.totalCells);
    jw.beginArray("cells");
    for (const sim::JsonValue *cell : slots)
        sim::writeJson(jw, *cell);
    jw.endArray();
    jw.endObject();
    return true;
}

} // namespace runner
