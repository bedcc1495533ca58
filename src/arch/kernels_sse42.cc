// SSE4.2 kernels: 2 lanes of 64-bit per vector (the 64-bit compare
// _mm_cmpgt_epi64 the min-reduction needs arrives with SSE4.2). Compiled
// with -msse4.2 on this translation unit only; identical results to the
// scalar reference by the same exact-arithmetic argument as the AVX2 TU.

#include "arch/kernels.h"

#if defined(__SSE4_2__)

#include <nmmintrin.h>

#include <cstring>

#include "common/hashing.h"

namespace sablock::arch {
namespace {

constexpr uint64_t kP61 = (1ULL << 61) - 1;
constexpr size_t kShingleTile = 4096;

inline __m128i Set1(uint64_t v) {
  return _mm_set1_epi64x(static_cast<long long>(v));
}

/// Exact low 64 bits of a 64×64 multiply per lane.
inline __m128i MulLo64(__m128i a, __m128i b) {
  __m128i lo = _mm_mul_epu32(a, b);
  __m128i cross = _mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(a, 32), b),
                                _mm_mul_epu32(a, _mm_srli_epi64(b, 32)));
  return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

/// (a·x + b) mod 2^61-1 per lane, fully reduced; see the AVX2 TU for the
/// limb algebra (identical, just 2 lanes wide).
inline __m128i ModMulAdd61(__m128i a, __m128i x, __m128i b) {
  const __m128i m61 = Set1(kP61);
  const __m128i m29 = Set1((1ULL << 29) - 1);
  const __m128i aH = _mm_srli_epi64(a, 32);
  const __m128i xH = _mm_srli_epi64(x, 32);
  const __m128i ll = _mm_mul_epu32(a, x);
  const __m128i lh = _mm_mul_epu32(a, xH);
  const __m128i hl = _mm_mul_epu32(aH, x);
  const __m128i hh = _mm_mul_epu32(aH, xH);
  const __m128i hh8 = _mm_slli_epi64(hh, 3);
  __m128i s = _mm_add_epi64(b, _mm_and_si128(hh8, m61));
  s = _mm_add_epi64(s, _mm_srli_epi64(hh8, 61));
  s = _mm_add_epi64(s, _mm_srli_epi64(lh, 29));
  s = _mm_add_epi64(s, _mm_slli_epi64(_mm_and_si128(lh, m29), 32));
  s = _mm_add_epi64(s, _mm_srli_epi64(hl, 29));
  s = _mm_add_epi64(s, _mm_slli_epi64(_mm_and_si128(hl, m29), 32));
  s = _mm_add_epi64(s, _mm_srli_epi64(ll, 61));
  s = _mm_add_epi64(s, _mm_and_si128(ll, m61));
  __m128i r =
      _mm_add_epi64(_mm_and_si128(s, m61), _mm_srli_epi64(s, 61));
  const __m128i pm1 = Set1(kP61 - 1);
  r = _mm_sub_epi64(r, _mm_and_si128(_mm_cmpgt_epi64(r, pm1), m61));
  r = _mm_sub_epi64(r, _mm_and_si128(_mm_cmpgt_epi64(r, pm1), m61));
  return r;
}

/// Lane-wise min of values <= 2^61-1 (the signed compare is exact there).
/// blendv_pd is a plain 64-bit lane select, and cheaper than blendv_epi8.
inline __m128i Min61(__m128i m, __m128i v) {
  return _mm_castpd_si128(
      _mm_blendv_pd(_mm_castsi128_pd(m), _mm_castsi128_pd(v),
                    _mm_castsi128_pd(_mm_cmpgt_epi64(m, v))));
}

void MinhashSignatureSse42(const uint64_t* shingles, size_t num_shingles,
                           const uint64_t* a, const uint64_t* b,
                           size_t num_hashes, uint64_t* sig) {
  constexpr uint64_t kEmpty = kP61;
  for (size_t i = 0; i < num_hashes; ++i) sig[i] = kEmpty;
  for (size_t tile = 0; tile < num_shingles; tile += kShingleTile) {
    const size_t tile_end =
        tile + kShingleTile < num_shingles ? tile + kShingleTile
                                           : num_shingles;
    size_t i = 0;
    for (; i + 2 <= num_hashes; i += 2) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
      __m128i m =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig + i));
      for (size_t s = tile; s < tile_end; ++s) {
        const __m128i h = ModMulAdd61(va, Set1(shingles[s]), vb);
        m = Min61(m, h);
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(sig + i), m);
    }
    for (; i < num_hashes; ++i) {
      uint64_t m = sig[i];
      for (size_t s = tile; s < tile_end; ++s) {
        const uint64_t h = MersenneHash61(a[i], shingles[s], b[i]);
        m = h < m ? h : m;
      }
      sig[i] = m;
    }
  }
}

void Fnv1aWindowsSse42(const char* data, size_t len, int q, uint64_t basis,
                       uint64_t* out) {
  const size_t count = len - static_cast<size_t>(q) + 1;
  const size_t width = static_cast<size_t>(q);
  size_t i = 0;
  if (width <= 7) {
    // Two adjacent windows per iteration out of one 8-byte load (lane 1
    // is the load shifted by one byte, so q can reach 7).
    const __m128i prime = Set1(kFnv1aPrime);
    const __m128i byte_mask = Set1(0xff);
    const __m128i vbasis = Set1(basis);
    for (; i + 2 <= count && i + 8 <= len; i += 2) {
      uint64_t window;
      std::memcpy(&window, data + i, sizeof(window));
      const __m128i lanes =
          _mm_set_epi64x(static_cast<long long>(window >> 8),
                         static_cast<long long>(window));
      __m128i h = vbasis;
      for (size_t j = 0; j < width; ++j) {
        const __m128i byte = _mm_and_si128(
            _mm_srli_epi64(lanes, static_cast<int>(8 * j)), byte_mask);
        h = MulLo64(_mm_xor_si128(h, byte), prime);
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
    }
  }
  for (; i < count; ++i) {
    uint64_t h = basis;
    for (size_t j = 0; j < width; ++j) {
      h = (h ^ static_cast<unsigned char>(data[i + j])) * kFnv1aPrime;
    }
    out[i] = h;
  }
}

void Mix64BatchSse42(const uint64_t* in, size_t n, uint64_t* out) {
  const __m128i c0 = Set1(0x9e3779b97f4a7c15ULL);
  const __m128i c1 = Set1(0xbf58476d1ce4e5b9ULL);
  const __m128i c2 = Set1(0x94d049bb133111ebULL);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    x = _mm_add_epi64(x, c0);
    x = MulLo64(_mm_xor_si128(x, _mm_srli_epi64(x, 30)), c1);
    x = MulLo64(_mm_xor_si128(x, _mm_srli_epi64(x, 27)), c2);
    x = _mm_xor_si128(x, _mm_srli_epi64(x, 31));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), x);
  }
  for (; i < n; ++i) out[i] = Mix64(in[i]);
}

inline __m128i LoadU(const uint64_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

void MinOfRowsSse42(const uint64_t* table, const uint32_t* row_ids,
                    size_t num_rows, size_t width, uint64_t* out) {
  const __m128i empty = Set1(kP61);
  size_t i = 0;
  // 8 slots (four accumulators) per block while the rows stream past.
  for (; i + 8 <= width; i += 8) {
    __m128i m0 = empty, m1 = empty, m2 = empty, m3 = empty;
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t* src =
          table + static_cast<size_t>(row_ids[r]) * width + i;
      m0 = Min61(m0, LoadU(src));
      m1 = Min61(m1, LoadU(src + 2));
      m2 = Min61(m2, LoadU(src + 4));
      m3 = Min61(m3, LoadU(src + 6));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), m0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 2), m1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4), m2);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 6), m3);
  }
  for (; i + 2 <= width; i += 2) {
    __m128i m = empty;
    for (size_t r = 0; r < num_rows; ++r) {
      m = Min61(m, LoadU(table + static_cast<size_t>(row_ids[r]) * width +
                         i));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), m);
  }
  for (; i < width; ++i) {  // slot tail
    uint64_t m = kP61;
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t v = table[static_cast<size_t>(row_ids[r]) * width + i];
      m = v < m ? v : m;
    }
    out[i] = m;
  }
}

const KernelTable kSse42Table = {
    Isa::kSse42,
    MinhashSignatureSse42,
    Fnv1aWindowsSse42,
    Mix64BatchSse42,
    MinOfRowsSse42,
};

}  // namespace

const KernelTable* Sse42KernelTable() { return &kSse42Table; }

}  // namespace sablock::arch

#else  // !defined(__SSE4_2__)

namespace sablock::arch {
const KernelTable* Sse42KernelTable() { return nullptr; }
}  // namespace sablock::arch

#endif
