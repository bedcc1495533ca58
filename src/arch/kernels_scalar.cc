// Scalar reference kernels — the semantics every SIMD level must match
// bit-for-bit. Also where the cache-conscious restructuring lives: the
// minhash kernel is the blocked hash-major loop (shingle tiles stay
// L1-resident across the hash sweep, each signature slot accumulates in
// a register instead of being re-loaded per shingle), and the FNV window
// kernel runs four independent hash chains so the multiply latency of
// one window overlaps the others.

#include <cstddef>
#include <cstdint>

#include "arch/kernels.h"
#include "common/hashing.h"

namespace sablock::arch {
namespace {

// Shingle-tile size for the hash-major minhash loop: 4096 × 8 bytes =
// 32 KiB, one L1d worth of shingles re-swept by every hash function
// before the next tile streams in.
constexpr size_t kShingleTile = 4096;

void MinhashSignatureScalar(const uint64_t* shingles, size_t num_shingles,
                            const uint64_t* a, const uint64_t* b,
                            size_t num_hashes, uint64_t* sig) {
  constexpr uint64_t kEmpty = UniversalHash::kPrime;
  for (size_t i = 0; i < num_hashes; ++i) sig[i] = kEmpty;
  for (size_t tile = 0; tile < num_shingles; tile += kShingleTile) {
    const size_t tile_end =
        tile + kShingleTile < num_shingles ? tile + kShingleTile
                                           : num_shingles;
    for (size_t i = 0; i < num_hashes; ++i) {
      const uint64_t ai = a[i];
      const uint64_t bi = b[i];
      uint64_t m = sig[i];
      for (size_t s = tile; s < tile_end; ++s) {
        const uint64_t h = MersenneHash61(ai, shingles[s], bi);
        m = h < m ? h : m;
      }
      sig[i] = m;
    }
  }
}

void Fnv1aWindowsScalar(const char* data, size_t len, int q, uint64_t basis,
                        uint64_t* out) {
  const size_t count = len - static_cast<size_t>(q) + 1;
  const size_t width = static_cast<size_t>(q);
  size_t i = 0;
  // Four independent FNV chains per iteration: each chain is a strict
  // xor->multiply dependency, but adjacent windows are independent, so
  // interleaving them hides the 64-bit multiply latency.
  for (; i + 4 <= count; i += 4) {
    uint64_t h0 = basis, h1 = basis, h2 = basis, h3 = basis;
    for (size_t j = 0; j < width; ++j) {
      h0 = (h0 ^ static_cast<unsigned char>(data[i + j])) * kFnv1aPrime;
      h1 = (h1 ^ static_cast<unsigned char>(data[i + 1 + j])) * kFnv1aPrime;
      h2 = (h2 ^ static_cast<unsigned char>(data[i + 2 + j])) * kFnv1aPrime;
      h3 = (h3 ^ static_cast<unsigned char>(data[i + 3 + j])) * kFnv1aPrime;
    }
    out[i] = h0;
    out[i + 1] = h1;
    out[i + 2] = h2;
    out[i + 3] = h3;
  }
  for (; i < count; ++i) {
    uint64_t h = basis;
    for (size_t j = 0; j < width; ++j) {
      h = (h ^ static_cast<unsigned char>(data[i + j])) * kFnv1aPrime;
    }
    out[i] = h;
  }
}

void Mix64BatchScalar(const uint64_t* in, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Mix64(in[i]);
}

void MinOfRowsScalar(const uint64_t* table, const uint32_t* row_ids,
                     size_t num_rows, size_t width, uint64_t* out) {
  constexpr uint64_t kEmpty = UniversalHash::kPrime;
  size_t i = 0;
  // Four slots per block, each accumulating in a register across rows.
  for (; i + 4 <= width; i += 4) {
    uint64_t m0 = kEmpty, m1 = kEmpty, m2 = kEmpty, m3 = kEmpty;
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t* src = table + static_cast<size_t>(row_ids[r]) * width;
      m0 = src[i] < m0 ? src[i] : m0;
      m1 = src[i + 1] < m1 ? src[i + 1] : m1;
      m2 = src[i + 2] < m2 ? src[i + 2] : m2;
      m3 = src[i + 3] < m3 ? src[i + 3] : m3;
    }
    out[i] = m0;
    out[i + 1] = m1;
    out[i + 2] = m2;
    out[i + 3] = m3;
  }
  for (; i < width; ++i) {
    uint64_t m = kEmpty;
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t v = table[static_cast<size_t>(row_ids[r]) * width + i];
      m = v < m ? v : m;
    }
    out[i] = m;
  }
}

const KernelTable kScalarTable = {
    Isa::kScalar,
    MinhashSignatureScalar,
    Fnv1aWindowsScalar,
    Mix64BatchScalar,
    MinOfRowsScalar,
};

}  // namespace

const KernelTable* ScalarKernelTable() { return &kScalarTable; }

}  // namespace sablock::arch
