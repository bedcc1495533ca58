// Cross-ISA parity for the src/arch/ kernel layer: every compiled
// dispatch level must produce byte-identical output to the scalar
// reference on the same inputs. This is the guarantee that lets the
// golden tests run once — SABLOCK_ISA can never change results, only
// speed. Levels the build or the machine lacks are skipped gracefully.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "arch/kernels.h"
#include "common/hashing.h"
#include "common/random.h"

namespace sablock::arch {
namespace {

/// The non-scalar tables compiled into this binary that the current
/// machine can actually execute.
std::vector<const KernelTable*> RunnableSimdTables() {
  std::vector<const KernelTable*> tables;
  for (Isa isa : {Isa::kSse42, Isa::kAvx2}) {
    if (IsaAvailable(isa)) tables.push_back(&KernelsFor(isa));
  }
  return tables;
}

class KernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tables_ = RunnableSimdTables();
    if (tables_.empty()) {
      GTEST_SKIP() << "no SIMD dispatch level compiled+runnable here; "
                      "scalar is trivially self-consistent";
    }
  }
  std::vector<const KernelTable*> tables_;
};

TEST_F(KernelParityTest, MinhashSignatureMatchesScalar) {
  const KernelTable& scalar = *ScalarKernelTable();
  Rng rng(41);
  // Hash counts around the 2/4-lane boundaries and shingle counts around
  // the 4096-shingle tile boundary.
  for (size_t num_hashes : {1u, 2u, 3u, 4u, 5u, 7u, 135u}) {
    for (size_t num_shingles : {0u, 1u, 5u, 63u, 4095u, 4097u}) {
      std::vector<uint64_t> shingles(num_shingles);
      for (uint64_t& s : shingles) s = Mix64(rng.UniformInt(0, 1 << 30));
      std::vector<uint64_t> a(num_hashes), b(num_hashes);
      for (size_t i = 0; i < num_hashes; ++i) {
        UniversalHash h =
            UniversalHash::FromSeed(17, static_cast<uint64_t>(i));
        a[i] = h.a();
        b[i] = h.b();
      }
      std::vector<uint64_t> want(num_hashes), got(num_hashes);
      scalar.minhash_signature(shingles.data(), shingles.size(), a.data(),
                               b.data(), num_hashes, want.data());
      for (const KernelTable* t : tables_) {
        t->minhash_signature(shingles.data(), shingles.size(), a.data(),
                             b.data(), num_hashes, got.data());
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 num_hashes * sizeof(uint64_t)))
            << IsaName(t->isa) << " h=" << num_hashes
            << " s=" << num_shingles;
      }
    }
  }
}

TEST_F(KernelParityTest, Fnv1aWindowsMatchesScalar) {
  const KernelTable& scalar = *ScalarKernelTable();
  Rng rng(43);
  std::string text;
  for (int i = 0; i < 300; ++i) {
    text.push_back(static_cast<char>(rng.UniformInt(0, 255)));
  }
  const uint64_t basis = kFnv1aOffsetBasis ^ Mix64(0);
  for (int q : {1, 2, 3, 4, 5, 6, 7, 8, 11}) {
    for (size_t len : {static_cast<size_t>(q), static_cast<size_t>(q) + 1,
                       size_t{9}, size_t{64}, text.size()}) {
      if (len < static_cast<size_t>(q) || len > text.size()) continue;
      const size_t count = len - static_cast<size_t>(q) + 1;
      std::vector<uint64_t> want(count), got(count);
      scalar.fnv1a_windows(text.data(), len, q, basis, want.data());
      for (const KernelTable* t : tables_) {
        got.assign(count, 0);
        t->fnv1a_windows(text.data(), len, q, basis, got.data());
        ASSERT_EQ(want, got) << IsaName(t->isa) << " q=" << q
                             << " len=" << len;
      }
    }
  }
}

TEST_F(KernelParityTest, Mix64BatchMatchesScalar) {
  const KernelTable& scalar = *ScalarKernelTable();
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 127u, 1000u}) {
    std::vector<uint64_t> in(n);
    for (size_t i = 0; i < n; ++i) in[i] = ~(i * 0x2545f4914f6cdd1dULL);
    std::vector<uint64_t> want(n), got(n);
    scalar.mix64_batch(in.data(), n, want.data());
    for (const KernelTable* t : tables_) {
      t->mix64_batch(in.data(), n, got.data());
      ASSERT_EQ(want, got) << IsaName(t->isa) << " n=" << n;
    }
  }
}

// A 64-row table of `width` slots mixing random minhash values with the
// extremes 0, 2^61-2 and the empty sentinel 2^61-1.
std::vector<uint64_t> MinOfRowsTable(size_t width, Rng& rng) {
  constexpr uint64_t kEmpty = UniversalHash::kPrime;
  std::vector<uint64_t> table(64 * width);
  for (uint64_t& v : table) {
    switch (rng.UniformInt(0, 5)) {
      case 0: v = 0; break;
      case 1: v = kEmpty - 1; break;
      case 2: v = kEmpty; break;
      default: v = Mix64(rng.UniformInt(0, 1 << 30)) % kEmpty; break;
    }
  }
  return table;
}

constexpr size_t kMinOfRowsWidths[] = {1, 3, 4, 15, 16, 17, 135, 252};
constexpr size_t kMinOfRowsCounts[] = {0, 1, 2, 13, 40};

TEST(MinOfRowsTest, ScalarIsElementwiseMinWithEmptySentinel) {
  const KernelTable& scalar = *ScalarKernelTable();
  Rng rng(45);
  for (size_t width : kMinOfRowsWidths) {
    const std::vector<uint64_t> table = MinOfRowsTable(width, rng);
    for (size_t num_rows : kMinOfRowsCounts) {
      std::vector<uint32_t> ids(num_rows);
      for (uint32_t& id : ids) {
        id = static_cast<uint32_t>(rng.UniformInt(0, 63));
      }
      std::vector<uint64_t> want(width, UniversalHash::kPrime);
      for (uint32_t id : ids) {
        for (size_t i = 0; i < width; ++i) {
          want[i] = std::min(want[i], table[id * width + i]);
        }
      }
      std::vector<uint64_t> got(width, 0);
      scalar.min_of_rows(table.data(), ids.data(), num_rows, width,
                         got.data());
      ASSERT_EQ(want, got) << "w=" << width << " rows=" << num_rows;
    }
  }
}

TEST_F(KernelParityTest, MinOfRowsMatchesScalar) {
  const KernelTable& scalar = *ScalarKernelTable();
  Rng rng(47);
  for (size_t width : kMinOfRowsWidths) {
    const std::vector<uint64_t> table = MinOfRowsTable(width, rng);
    for (size_t num_rows : kMinOfRowsCounts) {
      std::vector<uint32_t> ids(num_rows);
      for (uint32_t& id : ids) {
        id = static_cast<uint32_t>(rng.UniformInt(0, 63));
      }
      std::vector<uint64_t> want(width), got(width);
      scalar.min_of_rows(table.data(), ids.data(), num_rows, width,
                         want.data());
      for (const KernelTable* t : tables_) {
        got.assign(width, 0);
        t->min_of_rows(table.data(), ids.data(), num_rows, width,
                       got.data());
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 width * sizeof(uint64_t)))
            << IsaName(t->isa) << " w=" << width << " rows=" << num_rows;
      }
    }
  }
}

// Dispatch policy, independent of what this machine supports.
TEST(IsaResolutionTest, OverrideParsingAndClamping) {
  Isa parsed;
  EXPECT_TRUE(ParseIsaName("scalar", &parsed));
  EXPECT_EQ(parsed, Isa::kScalar);
  EXPECT_TRUE(ParseIsaName("sse42", &parsed));
  EXPECT_EQ(parsed, Isa::kSse42);
  EXPECT_TRUE(ParseIsaName("avx2", &parsed));
  EXPECT_EQ(parsed, Isa::kAvx2);
  EXPECT_FALSE(ParseIsaName("avx512", &parsed));

  // No override -> best available; unknown string -> best available;
  // scalar is always honored (it is always available).
  EXPECT_EQ(ResolveIsa(nullptr), BestAvailableIsa());
  EXPECT_EQ(ResolveIsa(""), BestAvailableIsa());
  EXPECT_EQ(ResolveIsa("avx512"), BestAvailableIsa());
  EXPECT_EQ(ResolveIsa("scalar"), Isa::kScalar);
  // A request the machine can satisfy is honored; one it cannot is
  // clamped to something runnable, never escalated past the request.
  for (const char* name : {"sse42", "avx2"}) {
    Isa requested;
    ASSERT_TRUE(ParseIsaName(name, &requested));
    Isa resolved = ResolveIsa(name);
    EXPECT_TRUE(IsaAvailable(resolved));
    EXPECT_LE(static_cast<int>(resolved), static_cast<int>(requested));
    if (IsaAvailable(requested)) EXPECT_EQ(resolved, requested);
  }
}

TEST(IsaResolutionTest, ScalarAlwaysCompiledAndActiveIsRunnable) {
  EXPECT_TRUE(IsaCompiled(Isa::kScalar));
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  EXPECT_TRUE(IsaAvailable(ActiveIsa()));
  EXPECT_EQ(ActiveKernels().isa, ActiveIsa());
  // Uncompiled levels fall back to the scalar table rather than crash.
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    const KernelTable& t = KernelsFor(isa);
    EXPECT_TRUE(t.isa == isa || t.isa == Isa::kScalar);
  }
}

}  // namespace
}  // namespace sablock::arch
