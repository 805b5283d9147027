/**
 * @file
 * Word-level signature kernels behind a runtime-selectable seam.
 *
 * The BFGTS hot path (Eq. 2-4 of the paper) reduces to a handful of
 * operations over the raw 64-bit words of Bloom signatures: popcount,
 * bitwise OR/AND, AND-any (the paper's intersectBlooms() test) and the
 * fused union-popcount triple that feeds the Eq. 3 intersection
 * estimate. This header exposes those kernels as a table of function
 * pointers (SignatureOps) with two implementations:
 *
 *  - scalar: the original seed implementation shape, kept alive as a
 *    differential oracle. One word at a time, temporaries materialized
 *    exactly where the seed materialized them (union/intersection
 *    buffers, separate popcount passes).
 *  - simd:   fused single-pass AVX2+POPCNT kernels with no
 *    temporaries, selected at startup when the host supports them (the
 *    per-part bit vectors of a partitioned signature are plain word
 *    ranges, so every part is probed in the same vector pass --
 *    mirroring the parallel-probe layout of hardware signatures). On
 *    hosts without AVX2 the simd table is the scalar table.
 *
 * Both implementations compute bit-identical results: the estimators
 * consume integer popcounts, and identical integers flow through
 * identical double-precision formulas. tests/test_differential.cpp
 * enforces this property end to end.
 *
 * Selection: BFGTS_SIG_IMPL=scalar|simd (read once at startup; the
 * default is simd). Tests and benchmarks may override it at runtime
 * with setSignatureImpl().
 */

#ifndef BFGTS_BLOOM_SIGNATURE_OPS_H
#define BFGTS_BLOOM_SIGNATURE_OPS_H

#include <cstddef>
#include <cstdint>

namespace bloom {

/** Which kernel family services signature word operations. */
enum class SigImpl { Scalar, Simd };

/** Popcounts of two word ranges and of their union, for Eq. 3. */
struct UnionCounts {
    std::uint64_t popA = 0;
    std::uint64_t popB = 0;
    std::uint64_t popUnion = 0;
};

/**
 * Table of word-range kernels. All ranges are @p n words long; callers
 * guarantee compatible geometry (same filter config) before invoking.
 */
struct SignatureOps {
    /** Implementation name, for reports and benchmarks. */
    const char *name;
    /** Total set bits in words[0..n). */
    std::uint64_t (*popcountWords)(const std::uint64_t *words,
                                   std::size_t n);
    /** dst[i] |= src[i]. */
    void (*orWords)(std::uint64_t *dst, const std::uint64_t *src,
                    std::size_t n);
    /** dst[i] &= src[i]. */
    void (*andWords)(std::uint64_t *dst, const std::uint64_t *src,
                     std::size_t n);
    /** True iff any (a[i] & b[i]) is nonzero. */
    bool (*andAny)(const std::uint64_t *a, const std::uint64_t *b,
                   std::size_t n);
    /** popcount of the intersection, |bits(A) & bits(B)|. */
    std::uint64_t (*andPopcount)(const std::uint64_t *a,
                                 const std::uint64_t *b, std::size_t n);
    /** Popcounts of a, b and a|b (the Eq. 3 inputs). */
    UnionCounts (*unionCounts)(const std::uint64_t *a,
                               const std::uint64_t *b, std::size_t n);
};

/** The seed's word-at-a-time kernels (the differential oracle). */
const SignatureOps &scalarSignatureOps();

/** AVX2+POPCNT kernels when the host supports them, else scalar. */
const SignatureOps &simdSignatureOps();

/** The kernels selected by BFGTS_SIG_IMPL / setSignatureImpl(). */
const SignatureOps &activeSignatureOps();

/** The currently selected implementation. */
SigImpl activeSignatureImpl();

/**
 * Override the active implementation (tests, benchmarks, the
 * differential harness). Thread-compatible with concurrent readers;
 * do not flip it in the middle of a simulation.
 */
void setSignatureImpl(SigImpl impl);

/** True if the simd table runs vectorized (AVX2) kernels. */
bool simdSignatureOpsVectorized();

} // namespace bloom

#endif // BFGTS_BLOOM_SIGNATURE_OPS_H
