/**
 * @file
 * Differential harness: the scalar signature kernels are the oracle
 * for the fast (AVX2) kernels, at three levels.
 *
 *  1. Op level: randomized word-range sequences through both
 *     SignatureOps tables must produce exactly equal integers, bits
 *     and booleans -- no tolerance, no epsilon.
 *  2. Filter level: the Eq. 2-4 estimators consume only popcounts, so
 *     identical integer counts must yield bit-identical doubles.
 *  3. End to end: a contended simulation run under
 *     BFGTS_SIG_IMPL=scalar and under the fast path must emit
 *     byte-identical machine-readable reports (the bfgts-obs-v1 stats
 *     body and the complete bfgts-qual-v1 document), across every
 *     signature-using contention manager and across BFGTS_HASH_SEED
 *     values. A single differing byte fails the suite.
 *
 * This is what licenses the SIMD path to exist at all: the fast
 * kernels are an implementation detail that is provably invisible to
 * every simulated outcome.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/estimate.h"
#include "bloom/signature.h"
#include "bloom/signature_ops.h"
#include "cm/factory.h"
#include "runner/simulation.h"
#include "sim/det_hash.h"
#include "sim/json.h"
#include "sim/quality.h"
#include "sim/random.h"

namespace {

using bloom::SigImpl;

class DifferentialTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = bloom::activeSignatureImpl(); }

    void
    TearDown() override
    {
        bloom::setSignatureImpl(saved_);
        sim::setHashSeed(0);
    }

  private:
    SigImpl saved_ = SigImpl::Simd;
};

/** Random word range with a controllable fill density. */
std::vector<std::uint64_t>
randomWords(sim::Rng &rng, std::size_t n, int density_pct)
{
    std::vector<std::uint64_t> words(n, 0);
    for (auto &word : words) {
        if (density_pct >= 100) {
            word = ~0ULL;
            continue;
        }
        for (int bit = 0; bit < 64; ++bit) {
            if (rng.below(100) < static_cast<std::uint64_t>(density_pct))
                word |= 1ULL << bit;
        }
    }
    return words;
}

TEST_F(DifferentialTest, OpsAgreeOnRandomSequences)
{
    const bloom::SignatureOps &scalar = bloom::scalarSignatureOps();
    const bloom::SignatureOps &simd = bloom::simdSignatureOps();
    sim::Rng rng(0xd1ffe7e57ULL);

    // Sweep lengths around the vector width (4 words per AVX2 lane)
    // so every tail length is exercised, plus larger ranges.
    for (std::size_t n = 1; n <= 40; ++n) {
        for (int density : {0, 1, 10, 50, 90, 100}) {
            const std::vector<std::uint64_t> a =
                randomWords(rng, n, density);
            const std::vector<std::uint64_t> b =
                randomWords(rng, n, 100 - density);

            EXPECT_EQ(scalar.popcountWords(a.data(), n),
                      simd.popcountWords(a.data(), n))
                << "popcount n=" << n << " density=" << density;
            EXPECT_EQ(scalar.andAny(a.data(), b.data(), n),
                      simd.andAny(a.data(), b.data(), n))
                << "andAny n=" << n;
            EXPECT_EQ(scalar.andPopcount(a.data(), b.data(), n),
                      simd.andPopcount(a.data(), b.data(), n))
                << "andPopcount n=" << n;

            const bloom::UnionCounts sc =
                scalar.unionCounts(a.data(), b.data(), n);
            const bloom::UnionCounts sv =
                simd.unionCounts(a.data(), b.data(), n);
            EXPECT_EQ(sc.popA, sv.popA) << "unionCounts.popA n=" << n;
            EXPECT_EQ(sc.popB, sv.popB) << "unionCounts.popB n=" << n;
            EXPECT_EQ(sc.popUnion, sv.popUnion)
                << "unionCounts.popUnion n=" << n;

            std::vector<std::uint64_t> or_scalar = a;
            std::vector<std::uint64_t> or_simd = a;
            scalar.orWords(or_scalar.data(), b.data(), n);
            simd.orWords(or_simd.data(), b.data(), n);
            EXPECT_EQ(or_scalar, or_simd) << "orWords n=" << n;

            std::vector<std::uint64_t> and_scalar = a;
            std::vector<std::uint64_t> and_simd = a;
            scalar.andWords(and_scalar.data(), b.data(), n);
            simd.andWords(and_simd.data(), b.data(), n);
            EXPECT_EQ(and_scalar, and_simd) << "andWords n=" << n;
        }
    }
}

TEST_F(DifferentialTest, EstimatorsAreBitIdenticalAcrossImpls)
{
    // Eq. 2-4 consume integer popcounts; with identical integers the
    // double-precision formulas are the same instruction sequence, so
    // the doubles must compare exactly equal (==, not near).
    sim::Rng rng(0xe57137a7e5ULL);
    for (const auto &[bits, hashes, partitioned] :
         std::vector<std::tuple<std::uint64_t, int, bool>>{
             {512, 2, false},
             {2048, 4, false},
             {2048, 4, true},
             {8192, 8, true}}) {
        bloom::BloomConfig config;
        config.numBits = bits;
        config.numHashes = hashes;
        config.partitioned = partitioned;

        bloom::BloomFilter a_scalar(config), b_scalar(config);
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t key = rng.next();
            if (i % 3 != 0)
                a_scalar.insert(key);
            if (i % 2 == 0)
                b_scalar.insert(key);
        }
        bloom::BloomFilter a_simd = a_scalar;
        bloom::BloomFilter b_simd = b_scalar;

        bloom::setSignatureImpl(SigImpl::Scalar);
        const std::uint64_t pop_scalar = a_scalar.popCount();
        const double est_scalar = bloom::estimateSetSize(
            pop_scalar, a_scalar.numBits(), a_scalar.numHashes());
        const double inter_scalar =
            bloom::estimateIntersectionSize(a_scalar, b_scalar);
        const bool any_scalar =
            a_scalar.intersectionNonEmpty(b_scalar);

        bloom::setSignatureImpl(SigImpl::Simd);
        const std::uint64_t pop_simd = a_simd.popCount();
        const double est_simd = bloom::estimateSetSize(
            pop_simd, a_simd.numBits(), a_simd.numHashes());
        const double inter_simd =
            bloom::estimateIntersectionSize(a_simd, b_simd);
        const bool any_simd = a_simd.intersectionNonEmpty(b_simd);

        EXPECT_EQ(pop_scalar, pop_simd);
        EXPECT_EQ(est_scalar, est_simd); // bit-exact, not EXPECT_NEAR
        EXPECT_EQ(inter_scalar, inter_simd);
        EXPECT_EQ(any_scalar, any_simd);
        EXPECT_EQ(a_scalar.words(), a_simd.words());
    }
}

runner::SimConfig
contendedConfig(cm::CmKind kind)
{
    runner::SimConfig config;
    // Intruder is the paper's most contended benchmark: plenty of
    // aborts, stalls, and CM arbitration on every signature path.
    config.workload = "Intruder";
    config.cm = kind;
    config.numCpus = 8;
    config.threadsPerCpu = 2;
    config.txPerThreadOverride = 15;
    config.seed = 7;
    return config;
}

/**
 * Run one simulation under (@p impl, @p hash_seed) and capture every
 * machine-readable report: the bfgts-obs-v1 stats body (dumpStatsJson
 * plus the SimResults scalars it envelopes) and the complete
 * bfgts-qual-v1 document.
 */
std::string
reportsFor(const runner::SimConfig &base, SigImpl impl,
           std::uint64_t hash_seed)
{
    bloom::setSignatureImpl(impl);
    sim::setHashSeed(hash_seed);

    sim::QualityRecorder quality;
    runner::SimConfig config = base;
    config.quality = &quality;

    runner::Simulation sim(config);
    const runner::SimResults results = sim.run();

    std::ostringstream out;
    {
        sim::JsonWriter jw(out);
        jw.beginObject();
        sim.dumpStatsJson(jw);
        jw.endObject();
    }
    out << "\nruntime=" << results.runtime
        << " commits=" << results.commits
        << " aborts=" << results.aborts
        << " conflicts=" << results.conflicts
        << " serializations=" << results.serializations
        << " stallTimeouts=" << results.stallTimeouts
        << " contentionRate=" << results.contentionRate << '\n';
    sim.dumpStats(out);
    sim::writeQualReport(out, "differential", quality.data());
    return out.str();
}

TEST_F(DifferentialTest, ReportsAreByteIdenticalAcrossImpls)
{
    // All four signature-consuming CM families: exponential backoff
    // (no signatures -- control), ATS and PTS (software predictor
    // tables), and the hardware BFGTS design point (Bloom signature
    // exchange on every commit).
    for (cm::CmKind kind : {cm::CmKind::Backoff, cm::CmKind::Ats,
                            cm::CmKind::Pts, cm::CmKind::BfgtsHw}) {
        const std::uint64_t hash_seeds[] = {0,
                                            0x9e3779b97f4a7c15ULL};
        for (std::uint64_t hash_seed : hash_seeds) {
            const runner::SimConfig config = contendedConfig(kind);
            const std::string scalar =
                reportsFor(config, SigImpl::Scalar, hash_seed);
            const std::string simd =
                reportsFor(config, SigImpl::Simd, hash_seed);
            EXPECT_EQ(scalar, simd)
                << "fast signature kernels perturbed simulated "
                   "behavior (cm kind "
                << static_cast<int>(kind) << ", hash seed "
                << hash_seed << ")";
            EXPECT_FALSE(scalar.empty());
        }
    }
}

TEST_F(DifferentialTest, SignatureDetectionModeIsImplInvariant)
{
    // Signature-based conflict detection probes Bloom filters on
    // every coherence request -- the densest signature traffic in the
    // model, worth its own leg on top of the CM sweep above.
    runner::SimConfig config = contendedConfig(cm::CmKind::BfgtsHw);
    config.conflict.detectionMode = htm::DetectionMode::Signature;
    const std::string scalar = reportsFor(config, SigImpl::Scalar, 1);
    const std::string simd = reportsFor(config, SigImpl::Simd, 1);
    EXPECT_EQ(scalar, simd);
}

} // namespace
