#include "catalogue.h"

#include "sim/logging.h"
#include "workloads/splash2.h"
#include "workloads/stamp.h"
#include "workloads/structures.h"

namespace workloads {

namespace {

template <typename StructureT>
std::unique_ptr<Workload>
makeStructure(int num_threads)
{
    return std::make_unique<StructureT>(typename StructureT::Config{},
                                        num_threads);
}

} // namespace

const std::vector<CatalogueEntry> &
workloadCatalogue()
{
    static const std::vector<CatalogueEntry> table = [] {
        std::vector<CatalogueEntry> entries;
        for (const std::string &name : stampBenchmarkNames())
            entries.push_back({name, "STAMP", [name](int threads) {
                return makeStampWorkload(name, threads);
            }});
        for (const std::string &name : splash2BenchmarkNames())
            entries.push_back({name, "SPLASH2", [name](int threads) {
                return makeSplash2Workload(name, threads);
            }});
        entries.push_back(
            {"HashMap", "structure", makeStructure<HashMapWorkload>});
        entries.push_back({"FifoQueue", "structure",
                           makeStructure<FifoQueueWorkload>});
        entries.push_back({"CounterArray", "structure",
                           makeStructure<CounterArrayWorkload>});
        return entries;
    }();
    return table;
}

const CatalogueEntry *
findWorkload(const std::string &name)
{
    for (const CatalogueEntry &entry : workloadCatalogue()) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, int num_threads)
{
    const CatalogueEntry *entry = findWorkload(name);
    if (entry == nullptr)
        sim_fatal("unknown workload '%s'", name.c_str());
    return entry->make(num_threads);
}

} // namespace workloads
