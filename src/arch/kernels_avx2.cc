// AVX2 kernels: 4 lanes of 64-bit per vector. Compiled with -mavx2 on
// this translation unit only (see CMakeLists.txt); when the flag is not
// available the TU degrades to a nullptr table and dispatch falls back.
//
// Bit-exactness: the Mersenne-61 hash computes the mathematically exact
// (a·x + b) mod 2^61-1 via 32-bit limb products, fully reduced — the
// same canonical representative the scalar MersenneHash61 produces. The
// FNV kernel reproduces the exact wrap-around 64-bit multiply chain.

#include "arch/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "common/hashing.h"

namespace sablock::arch {
namespace {

constexpr uint64_t kP61 = (1ULL << 61) - 1;
constexpr size_t kShingleTile = 4096;  // matches the scalar blocking

inline __m256i Set1(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Exact low 64 bits of a 64×64 multiply per lane (AVX2 has no 64-bit
/// multiply; compose it from three 32×32→64 partial products).
inline __m256i MulLo64(__m256i a, __m256i b) {
  __m256i lo = _mm256_mul_epu32(a, b);  // aL·bL, full 64 bits
  __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),   // aH·bL (low 64)
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));  // aL·bH (low 64)
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// (a·x + b) mod 2^61-1 per lane, fully reduced to [0, p). Requires
/// a, b < p (so the high 32-bit limb of `a` is < 2^29); x is any u64.
inline __m256i ModMulAdd61(__m256i a, __m256i x, __m256i b) {
  const __m256i m61 = Set1(kP61);
  const __m256i m29 = Set1((1ULL << 29) - 1);
  const __m256i aH = _mm256_srli_epi64(a, 32);
  const __m256i xH = _mm256_srli_epi64(x, 32);
  const __m256i ll = _mm256_mul_epu32(a, x);    // aL·xL  < 2^64
  const __m256i lh = _mm256_mul_epu32(a, xH);   // aL·xH  < 2^64
  const __m256i hl = _mm256_mul_epu32(aH, x);   // aH·xL  < 2^61
  const __m256i hh = _mm256_mul_epu32(aH, xH);  // aH·xH  < 2^58
  // a·x + b = hh·2^64 + (lh + hl)·2^32 + ll + b. Reduce term-wise with
  // 2^64 ≡ 8 and t·2^32 = (t >> 29) · 2^61 + (t & m29) · 2^32
  //                     ≡ (t >> 29) + ((t & m29) << 32)   (mod p).
  // hh·8 fits u64 (hh < 2^61) but is NOT < 2^61, so it is split into
  // 61-bit limbs like everything else; then every summand is < 2^61
  // (nine of them, < 5·2^61 total): no u64 overflow.
  const __m256i hh8 = _mm256_slli_epi64(hh, 3);
  __m256i s = _mm256_add_epi64(b, _mm256_and_si256(hh8, m61));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(hh8, 61));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(lh, 29));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(lh, m29), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(hl, 29));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(hl, m29), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(ll, 61));
  s = _mm256_add_epi64(s, _mm256_and_si256(ll, m61));
  // Fold the carry limb, then two conditional subtracts (signed compares
  // are safe: everything is < 2^62).
  __m256i r = _mm256_add_epi64(_mm256_and_si256(s, m61),
                               _mm256_srli_epi64(s, 61));
  const __m256i pm1 = Set1(kP61 - 1);
  r = _mm256_sub_epi64(
      r, _mm256_and_si256(_mm256_cmpgt_epi64(r, pm1), m61));
  r = _mm256_sub_epi64(
      r, _mm256_and_si256(_mm256_cmpgt_epi64(r, pm1), m61));
  return r;
}

/// Lane-wise min of values <= 2^61-1 (the signed compare is exact there).
/// blendv_pd is a plain 64-bit lane select, and cheaper than blendv_epi8.
inline __m256i Min61(__m256i m, __m256i v) {
  return _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(m), _mm256_castsi256_pd(v),
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(m, v))));
}

void MinhashSignatureAvx2(const uint64_t* shingles, size_t num_shingles,
                          const uint64_t* a, const uint64_t* b,
                          size_t num_hashes, uint64_t* sig) {
  constexpr uint64_t kEmpty = kP61;
  for (size_t i = 0; i < num_hashes; ++i) sig[i] = kEmpty;
  for (size_t tile = 0; tile < num_shingles; tile += kShingleTile) {
    const size_t tile_end =
        tile + kShingleTile < num_shingles ? tile + kShingleTile
                                           : num_shingles;
    size_t i = 0;
    for (; i + 4 <= num_hashes; i += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      __m256i m =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sig + i));
      for (size_t s = tile; s < tile_end; ++s) {
        const __m256i h = ModMulAdd61(va, Set1(shingles[s]), vb);
        m = Min61(m, h);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sig + i), m);
    }
    for (; i < num_hashes; ++i) {  // hash-count tail
      uint64_t m = sig[i];
      for (size_t s = tile; s < tile_end; ++s) {
        const uint64_t h = MersenneHash61(a[i], shingles[s], b[i]);
        m = h < m ? h : m;
      }
      sig[i] = m;
    }
  }
}

void Fnv1aWindowsAvx2(const char* data, size_t len, int q, uint64_t basis,
                      uint64_t* out) {
  const size_t count = len - static_cast<size_t>(q) + 1;
  const size_t width = static_cast<size_t>(q);
  size_t i = 0;
  if (width <= 5) {
    // Four adjacent windows per iteration. One 8-byte load covers the
    // bytes of windows i..i+3 when q <= 5; lane k holds the load shifted
    // by 8k bits, so byte j of window i+k is ((lane_k >> 8j) & 0xff).
    const __m256i prime = Set1(kFnv1aPrime);
    const __m256i byte_mask = Set1(0xff);
    const __m256i stagger = _mm256_set_epi64x(24, 16, 8, 0);
    const __m256i vbasis = Set1(basis);
    for (; i + 4 <= count && i + 8 <= len; i += 4) {
      uint64_t window;
      std::memcpy(&window, data + i, sizeof(window));
      const __m256i lanes = _mm256_srlv_epi64(Set1(window), stagger);
      __m256i h = vbasis;
      for (size_t j = 0; j < width; ++j) {
        const __m256i byte = _mm256_and_si256(
            _mm256_srli_epi64(lanes, static_cast<int>(8 * j)), byte_mask);
        h = MulLo64(_mm256_xor_si256(h, byte), prime);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
    }
  }
  for (; i < count; ++i) {  // tail windows (and the whole q > 5 case)
    uint64_t h = basis;
    for (size_t j = 0; j < width; ++j) {
      h = (h ^ static_cast<unsigned char>(data[i + j])) * kFnv1aPrime;
    }
    out[i] = h;
  }
}

void Mix64BatchAvx2(const uint64_t* in, size_t n, uint64_t* out) {
  const __m256i c0 = Set1(0x9e3779b97f4a7c15ULL);
  const __m256i c1 = Set1(0xbf58476d1ce4e5b9ULL);
  const __m256i c2 = Set1(0x94d049bb133111ebULL);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    x = _mm256_add_epi64(x, c0);
    x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), c1);
    x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), c2);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
  }
  for (; i < n; ++i) out[i] = Mix64(in[i]);
}

inline __m256i LoadU(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

void MinOfRowsAvx2(const uint64_t* table, const uint32_t* row_ids,
                   size_t num_rows, size_t width, uint64_t* out) {
  const __m256i empty = Set1(kP61);
  size_t i = 0;
  // 16 slots (four accumulators) per block while the rows stream past.
  for (; i + 16 <= width; i += 16) {
    __m256i m0 = empty, m1 = empty, m2 = empty, m3 = empty;
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t* src =
          table + static_cast<size_t>(row_ids[r]) * width + i;
      m0 = Min61(m0, LoadU(src));
      m1 = Min61(m1, LoadU(src + 4));
      m2 = Min61(m2, LoadU(src + 8));
      m3 = Min61(m3, LoadU(src + 12));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), m0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), m1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8), m2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 12), m3);
  }
  for (; i + 4 <= width; i += 4) {
    __m256i m = empty;
    for (size_t r = 0; r < num_rows; ++r) {
      m = Min61(m, LoadU(table + static_cast<size_t>(row_ids[r]) * width +
                         i));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), m);
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

const KernelTable kAvx2Table = {
    Isa::kAvx2,
    MinhashSignatureAvx2,
    Fnv1aWindowsAvx2,
    Mix64BatchAvx2,
    MinOfRowsAvx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() { return &kAvx2Table; }

}  // namespace sablock::arch

#else  // !defined(__AVX2__)

namespace sablock::arch {
const KernelTable* Avx2KernelTable() { return nullptr; }
}  // namespace sablock::arch

#endif
