#include "signature_ops.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BFGTS_SIG_X86 1
#endif

namespace bloom {

namespace {

// ---------------------------------------------------------------------
// Scalar kernels: the seed implementation, preserved as the oracle.
// One word at a time; union/intersection buffers are materialized and
// popcounted in separate passes, exactly as the original BloomFilter /
// estimateIntersectionSize() code did.
// ---------------------------------------------------------------------

std::uint64_t
scalarPopcountWords(const std::uint64_t *words, std::size_t n)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::uint64_t>(std::popcount(words[i]));
    return count;
}

void
scalarOrWords(std::uint64_t *dst, const std::uint64_t *src,
              std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] |= src[i];
}

void
scalarAndWords(std::uint64_t *dst, const std::uint64_t *src,
               std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] &= src[i];
}

bool
scalarAndAny(const std::uint64_t *a, const std::uint64_t *b,
             std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] & b[i])
            return true;
    }
    return false;
}

std::uint64_t
scalarAndPopcount(const std::uint64_t *a, const std::uint64_t *b,
                  std::size_t n)
{
    // Seed shape: materialize the intersection, then count it.
    std::vector<std::uint64_t> inter(a, a + n);
    scalarAndWords(inter.data(), b, n);
    return scalarPopcountWords(inter.data(), n);
}

UnionCounts
scalarUnionCounts(const std::uint64_t *a, const std::uint64_t *b,
                  std::size_t n)
{
    // Seed shape: materialize the union, then three separate passes.
    std::vector<std::uint64_t> u(a, a + n);
    scalarOrWords(u.data(), b, n);
    UnionCounts counts;
    counts.popA = scalarPopcountWords(a, n);
    counts.popB = scalarPopcountWords(b, n);
    counts.popUnion = scalarPopcountWords(u.data(), n);
    return counts;
}

#ifdef BFGTS_SIG_X86

// ---------------------------------------------------------------------
// AVX2 kernels. Popcount follows Mula's nibble-LUT + PSADBW scheme;
// every kernel is a single fused pass over unaligned 256-bit loads
// (four signature words per step). Selected at startup only when
// __builtin_cpu_supports() confirms AVX2 and POPCNT.
// ---------------------------------------------------------------------

__attribute__((target("avx2,popcnt"), always_inline)) inline __m256i
popcount256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    // Per-64-bit-lane partial sums.
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2,popcnt"), always_inline)) inline
std::uint64_t
hsum256(__m256i acc)
{
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0))
         + static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

__attribute__((target("avx2,popcnt"))) std::uint64_t
avx2PopcountWords(const std::uint64_t *words, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + i));
        acc = _mm256_add_epi64(acc, popcount256(v));
    }
    std::uint64_t count = hsum256(acc);
    for (; i < n; ++i)
        count += static_cast<std::uint64_t>(std::popcount(words[i]));
    return count;
}

__attribute__((target("avx2,popcnt"))) void
avx2OrWords(std::uint64_t *dst, const std::uint64_t *src,
            std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_or_si256(d, s));
    }
    for (; i < n; ++i)
        dst[i] |= src[i];
}

__attribute__((target("avx2,popcnt"))) void
avx2AndWords(std::uint64_t *dst, const std::uint64_t *src,
             std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_and_si256(d, s));
    }
    for (; i < n; ++i)
        dst[i] &= src[i];
}

__attribute__((target("avx2,popcnt"))) bool
avx2AndAny(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        const __m256i v = _mm256_and_si256(va, vb);
        if (!_mm256_testz_si256(v, v))
            return true;
    }
    for (; i < n; ++i) {
        if (a[i] & b[i])
            return true;
    }
    return false;
}

__attribute__((target("avx2,popcnt"))) std::uint64_t
avx2AndPopcount(const std::uint64_t *a, const std::uint64_t *b,
                std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        acc = _mm256_add_epi64(acc,
                               popcount256(_mm256_and_si256(va, vb)));
    }
    std::uint64_t count = hsum256(acc);
    for (; i < n; ++i)
        count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    return count;
}

__attribute__((target("avx2,popcnt"))) UnionCounts
avx2UnionCounts(const std::uint64_t *a, const std::uint64_t *b,
                std::size_t n)
{
    __m256i acc_a = _mm256_setzero_si256();
    __m256i acc_b = _mm256_setzero_si256();
    __m256i acc_u = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        acc_a = _mm256_add_epi64(acc_a, popcount256(va));
        acc_b = _mm256_add_epi64(acc_b, popcount256(vb));
        acc_u = _mm256_add_epi64(acc_u,
                                 popcount256(_mm256_or_si256(va, vb)));
    }
    UnionCounts counts;
    counts.popA = hsum256(acc_a);
    counts.popB = hsum256(acc_b);
    counts.popUnion = hsum256(acc_u);
    for (; i < n; ++i) {
        const std::uint64_t wa = a[i];
        const std::uint64_t wb = b[i];
        counts.popA += static_cast<std::uint64_t>(std::popcount(wa));
        counts.popB += static_cast<std::uint64_t>(std::popcount(wb));
        counts.popUnion +=
            static_cast<std::uint64_t>(std::popcount(wa | wb));
    }
    return counts;
}

bool
hostHasAvx2()
{
    return __builtin_cpu_supports("avx2")
        && __builtin_cpu_supports("popcnt");
}

#endif // BFGTS_SIG_X86

const SignatureOps kScalarOps = {
    "scalar",        scalarPopcountWords, scalarOrWords,
    scalarAndWords,  scalarAndAny,        scalarAndPopcount,
    scalarUnionCounts,
};

#ifdef BFGTS_SIG_X86
const SignatureOps kAvx2Ops = {
    "simd-avx2",  avx2PopcountWords, avx2OrWords, avx2AndWords,
    avx2AndAny,   avx2AndPopcount,   avx2UnionCounts,
};
#endif

const SignatureOps &
pickSimdOps()
{
#ifdef BFGTS_SIG_X86
    if (hostHasAvx2())
        return kAvx2Ops;
#endif
    // No vector tier on this host: the simd table is the oracle.
    return kScalarOps;
}

SigImpl
implFromEnv()
{
    // Read-once startup shim, same policy as BFGTS_HASH_SEED
    // (sim/det_hash.h) and BFGTS_AUDIT (sim/audit.cpp). Both
    // implementations produce bit-identical simulation results, so the
    // knob only moves wall-clock metrics, never reports.
    const char *v = std::getenv("BFGTS_SIG_IMPL");
    if (v == nullptr || *v == '\0')
        return SigImpl::Simd;
    const std::string s(v);
    if (s == "scalar")
        return SigImpl::Scalar;
    if (s == "simd" || s == "fast")
        return SigImpl::Simd;
    sim_fatal("BFGTS_SIG_IMPL: expected 'scalar' or 'simd', got '%s'",
              v);
}

std::atomic<SigImpl> &
implSlot()
{
    static std::atomic<SigImpl> slot{implFromEnv()};
    return slot;
}

} // namespace

const SignatureOps &
scalarSignatureOps()
{
    return kScalarOps;
}

const SignatureOps &
simdSignatureOps()
{
    static const SignatureOps &ops = pickSimdOps();
    return ops;
}

const SignatureOps &
activeSignatureOps()
{
    return activeSignatureImpl() == SigImpl::Scalar
             ? scalarSignatureOps()
             : simdSignatureOps();
}

SigImpl
activeSignatureImpl()
{
    return implSlot().load(std::memory_order_relaxed);
}

void
setSignatureImpl(SigImpl impl)
{
    implSlot().store(impl, std::memory_order_relaxed);
}

bool
simdSignatureOpsVectorized()
{
#ifdef BFGTS_SIG_X86
    return &simdSignatureOps() == &kAvx2Ops;
#else
    return false;
#endif
}

} // namespace bloom
