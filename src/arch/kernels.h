#ifndef SABLOCK_ARCH_KERNELS_H_
#define SABLOCK_ARCH_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "arch/arch.h"

namespace sablock::arch {

/// Batched kernels for the blocking hot paths, one table per ISA level.
/// Every implementation is REQUIRED to be byte-identical to the scalar
/// reference for all inputs (kernel_parity_test enforces this; the
/// technique goldens depend on it), so dispatch can never change
/// results — only how fast they arrive.
struct KernelTable {
  Isa isa;

  /// Minhash signature of a shingle set: for each hash function i,
  /// sig[i] = min over shingles x of ((a[i]·x + b[i]) mod 2^61-1), or
  /// the empty sentinel 2^61-1 when num_shingles == 0. a[i] must be in
  /// [1, 2^61-1) and b[i] in [0, 2^61-1) (UniversalHash parameters).
  /// Blocked hash-major loop: shingle tiles stay L1-resident while the
  /// hash sweep runs, and each sig[i] is accumulated in a register.
  void (*minhash_signature)(const uint64_t* shingles, size_t num_shingles,
                            const uint64_t* a, const uint64_t* b,
                            size_t num_hashes, uint64_t* sig);

  /// FNV-1a of every overlapping q-byte window of `data`:
  /// out[i] = fold of data[i..i+q) starting from `basis`, for
  /// i in [0, len - q]. Preconditions: q >= 1, len >= q. Identical
  /// values to HashBytes on each window with the same basis.
  void (*fnv1a_windows)(const char* data, size_t len, int q, uint64_t basis,
                        uint64_t* out);

  /// Bulk SplitMix64 finalizer: out[i] = Mix64(in[i]). In-place allowed.
  void (*mix64_batch)(const uint64_t* in, size_t n, uint64_t* out);

  /// Element-wise min of selected rows of a row-major table of `width`
  /// slots per row: out[i] = min over r < num_rows of
  /// table[row_ids[r] * width + i], or the empty sentinel 2^61-1 when
  /// num_rows == 0. Every table value must be <= 2^61-1 (minhash slots),
  /// so the SIMD levels' signed 64-bit compare is exact. Register-blocked
  /// slot-major loop: a block of slots accumulates in registers while
  /// the selected rows stream past. `out` must not alias the table.
  void (*min_of_rows)(const uint64_t* table, const uint32_t* row_ids,
                      size_t num_rows, size_t width, uint64_t* out);
};

/// The table for one ISA level. Levels that are not compiled in resolve
/// to the scalar table (results are identical by contract), so callers
/// may pass any level. Use IsaAvailable() to know whether a level's own
/// instructions would actually run.
const KernelTable& KernelsFor(Isa isa);

/// The table for ActiveIsa() — what production call sites use.
const KernelTable& ActiveKernels();

// Per-TU table accessors, linked unconditionally; SIMD TUs return
// nullptr when their ISA was not compiled in. Internal to the dispatch
// layer and the parity test.
const KernelTable* ScalarKernelTable();
const KernelTable* Sse42KernelTable();
const KernelTable* Avx2KernelTable();

}  // namespace sablock::arch

#endif  // SABLOCK_ARCH_KERNELS_H_
