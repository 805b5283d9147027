/**
 * @file
 * The workload catalogue: one name-to-maker table for the 13 built-in
 * workloads -- the seven STAMP benchmarks, the three SPLASH2-like
 * ones, then the three data structures with their default Config{}.
 *
 * Every by-name caller (the Simulation constructor, the single-core
 * baseline, the CLI and its sweep mode) resolves names here. Custom
 * parameters go through runner::SimConfig::workloadFactory instead.
 */

#ifndef BFGTS_WORKLOADS_CATALOGUE_H
#define BFGTS_WORKLOADS_CATALOGUE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace workloads {

/** One built-in workload. */
struct CatalogueEntry {
    /** Equal to the built workload's name(). */
    std::string name;
    /** "STAMP", "SPLASH2" or "structure". */
    std::string suite;
    std::function<std::unique_ptr<Workload>(int num_threads)> make;
};

/** Every built-in workload, grouped by suite. */
const std::vector<CatalogueEntry> &workloadCatalogue();

/** The entry named @p name, or nullptr. */
const CatalogueEntry *findWorkload(const std::string &name);

/**
 * Build only the workload named @p name; fatal ("unknown workload
 * '<name>'") when the catalogue has no such entry.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       int num_threads);

} // namespace workloads

#endif // BFGTS_WORKLOADS_CATALOGUE_H
