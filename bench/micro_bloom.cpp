/**
 * @file
 * Scalar-vs-SIMD microbenchmark of the Bloom signature kernels.
 *
 * Measures host ns/op for the operations on BFGTS's commit-time
 * critical path -- insert (set), union (orWords), intersection
 * popcount (andPopcount) and the full Eq. 3 intersection estimate --
 * once per SignatureOps implementation, across the paper's filter
 * sizes. The final row reports `sig_speedup`: the geometric mean of
 * scalar/simd time ratios over the word-level kernels (union,
 * intersect-popcount, estimate; insert is hash-bound and excluded).
 * CI gates `sig_speedup >= 3` via tools/report_diff.py --gate.
 *
 * With --json the rows land in a bfgts-obs-v1 "bench" document.
 * Timings are wall-clock and therefore nondeterministic by design;
 * this bench is deliberately NOT registered with the
 * tools/report_diff.py --tolerance baseline gates.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "bloom/estimate.h"
#include "bloom/signature_ops.h"
#include "sim/random.h"

namespace {

/** ns/op of @p body(): best of @p repeats timed loops of @p iters. */
template <typename Fn>
double
nsPerOp(int repeats, int iters, Fn &&body)
{
    double best = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            body();
        const auto stop = std::chrono::steady_clock::now();
        const double ns =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    stop - start)
                    .count())
            / iters;
        if (rep == 0 || ns < best)
            best = ns;
    }
    return best;
}

/** Keep the optimizer from deleting a computed value. */
volatile std::uint64_t g_sink_u64;
volatile double g_sink_double;

struct OpTimes {
    double setNs = 0.0;
    double unionNs = 0.0;
    double intersectPopcountNs = 0.0;
    double estimateNs = 0.0;
};

/** Time every kernel for one (implementation, filter size) pair. */
OpTimes
measure(const bloom::SignatureOps &ops, bloom::SigImpl impl,
        std::uint64_t bits, int repeats, int iters)
{
    const bloom::BloomConfig config{.numBits = bits, .numHashes = 4,
                                    .seed = 42};
    bloom::BloomFilter a(config), b(config);
    sim::Rng rng(1);
    for (int i = 0; i < 64; ++i) {
        a.insert(rng.next());
        b.insert(rng.next());
    }
    const std::size_t n = a.words().size();
    std::vector<std::uint64_t> dst = a.words();

    OpTimes times;
    // Insert goes through the H3 family, not the word kernels; it is
    // reported for context but excluded from the speedup gate.
    bloom::setSignatureImpl(impl);
    bloom::BloomFilter target(config);
    std::uint64_t key = 0;
    times.setNs = nsPerOp(repeats, iters, [&] {
        target.insert(key += 0x9e3779b97f4a7c15ULL);
    });

    times.unionNs = nsPerOp(repeats, iters, [&] {
        ops.orWords(dst.data(), b.words().data(), n);
        g_sink_u64 = dst[0];
    });

    times.intersectPopcountNs = nsPerOp(repeats, iters, [&] {
        g_sink_u64 =
            ops.andPopcount(a.words().data(), b.words().data(), n);
    });

    // The full Eq. 3 pipeline as the simulator runs it: union
    // popcounts through the active seam, then three Eq. 2 logs.
    times.estimateNs = nsPerOp(repeats, iters, [&] {
        g_sink_double = bloom::estimateIntersectionSize(a, b);
    });
    return times;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json("micro_bloom", argc, argv);
    bench::banner("Bloom signature kernels: scalar vs "
                  + std::string(bloom::simdSignatureOps().name));

    const bloom::SigImpl saved = bloom::activeSignatureImpl();
    const int repeats = bench::quickMode() ? 3 : 7;
    const int iters = bench::quickMode() ? 20000 : 200000;
    const std::uint64_t kBitSizes[] = {512, 2048, 8192};

    std::printf("%-10s %6s %10s %10s %14s %12s\n", "impl", "bits",
                "set_ns", "union_ns", "intersect_ns", "estimate_ns");
    std::vector<double> ratios;
    for (const std::uint64_t bits : kBitSizes) {
        const OpTimes scalar =
            measure(bloom::scalarSignatureOps(),
                    bloom::SigImpl::Scalar, bits, repeats, iters);
        const OpTimes simd =
            measure(bloom::simdSignatureOps(), bloom::SigImpl::Simd,
                    bits, repeats, iters);
        for (const auto &[impl, times] :
             {std::pair<const char *, const OpTimes &>{"scalar",
                                                       scalar},
              {bloom::simdSignatureOps().name, simd}}) {
            std::printf("%-10s %6llu %10.2f %10.2f %14.2f %12.2f\n",
                        impl,
                        static_cast<unsigned long long>(bits),
                        times.setNs, times.unionNs,
                        times.intersectPopcountNs, times.estimateNs);
            json.addRow()
                .set("impl", impl)
                .set("bits", bits)
                .set("set_ns", times.setNs)
                .set("union_ns", times.unionNs)
                .set("intersect_popcount_ns",
                     times.intersectPopcountNs)
                .set("estimate_ns", times.estimateNs);
        }
        ratios.push_back(scalar.unionNs / simd.unionNs);
        ratios.push_back(scalar.intersectPopcountNs
                         / simd.intersectPopcountNs);
        ratios.push_back(scalar.estimateNs / simd.estimateNs);
    }
    bloom::setSignatureImpl(saved);

    const double speedup = bench::geomean(ratios);
    std::printf("\nsig_speedup (geomean over union/intersect/"
                "estimate): %.2fx\n",
                speedup);
    json.addRow().set("impl", "speedup").set("sig_speedup", speedup);
    if (!json.write())
        return 1;
    return 0;
}
