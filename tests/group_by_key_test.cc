// Tests for the key-grouping core (core/group_by_key.h): the stable LSD
// radix sort and the block-emission contract every hash-keyed blocker
// relies on — ascending key order, ascending ids within a block, runs of
// >= 2 only, Done() honoured between blocks — cross-checked against an
// unordered_map reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/blocking.h"
#include "core/group_by_key.h"

namespace sablock::core {
namespace {

/// Sink that records every block and turns Done() after `limit` blocks.
class LimitSink : public BlockSink {
 public:
  explicit LimitSink(size_t limit) : limit_(limit) {}
  void Consume(Block block) override { blocks.push_back(std::move(block)); }
  bool Done() const override { return blocks.size() >= limit_; }
  std::vector<Block> blocks;

 private:
  size_t limit_;
};

std::vector<std::pair<uint64_t, Block>> Groups(GroupByKey& groups) {
  std::vector<std::pair<uint64_t, Block>> out;
  groups.ForEachGroup(
      [&out](uint64_t key, std::span<const data::RecordId> ids) {
        out.emplace_back(key, Block(ids.begin(), ids.end()));
        return true;
      });
  return out;
}

TEST(GroupByKeyTest, EmptyInputEmitsNothing) {
  GroupByKey groups;
  BlockCollection out;
  groups.Emit(out);
  EXPECT_EQ(out.NumBlocks(), 0u);
  EXPECT_EQ(groups.size(), 0u);
}

TEST(GroupByKeyTest, AllSingletonsEmitNothing) {
  GroupByKey groups;
  for (data::RecordId id = 0; id < 1000; ++id) {
    groups.Add(Mix64(id), id);
  }
  BlockCollection out;
  groups.Emit(out);
  EXPECT_EQ(out.NumBlocks(), 0u);
  EXPECT_EQ(groups.size(), 0u);  // cleared for the next table
}

TEST(GroupByKeyTest, OneSharedKeyGivesOneBlockOfEveryId) {
  GroupByKey groups;
  Block expected;
  for (data::RecordId id = 0; id < 500; ++id) {
    groups.Add(0xfeedfacecafebeefULL, id);
    expected.push_back(id);
  }
  BlockCollection out;
  groups.Emit(out);
  ASSERT_EQ(out.NumBlocks(), 1u);
  EXPECT_EQ(out.blocks()[0], expected);
}

TEST(GroupByKeyTest, KeysDifferingInOneDigitAreSeparated) {
  // For every bit (so every radix digit position) two keys that differ
  // only there must form two blocks, smaller key first, and a pass that
  // is skipped elsewhere must not merge them.
  for (int bit = 0; bit < 64; ++bit) {
    SCOPED_TRACE(bit);
    const uint64_t base = 0x0123456789abcdefULL & ~(uint64_t{1} << bit);
    const uint64_t other = base | (uint64_t{1} << bit);
    GroupByKey groups;
    for (data::RecordId id = 0; id < 8; ++id) {
      groups.Add(id % 2 == 0 ? other : base, id);
    }
    std::vector<std::pair<uint64_t, Block>> got = Groups(groups);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], std::make_pair(base, Block{1, 3, 5, 7}));
    EXPECT_EQ(got[1], std::make_pair(other, Block{0, 2, 4, 6}));
  }
}

TEST(GroupByKeyTest, DuplicatePairIsKeptTwice) {
  // OR-mode SA-LSH appends one item per set chosen bit; a repeated
  // (key, id) item stays repeated, as a hash-map bucket push would.
  GroupByKey groups;
  groups.Add(42, 3);
  groups.Add(42, 3);
  groups.Add(7, 1);
  BlockCollection out;
  groups.Emit(out);
  ASSERT_EQ(out.NumBlocks(), 1u);
  EXPECT_EQ(out.blocks()[0], (Block{3, 3}));
}

TEST(GroupByKeyTest, AscendingKeysAndAscendingIds) {
  GroupByKey groups;
  const std::vector<uint64_t> keys = {~uint64_t{0}, 5, uint64_t{1} << 40, 0,
                                      5, 0, ~uint64_t{0}, uint64_t{1} << 40};
  for (data::RecordId id = 0; id < keys.size(); ++id) {
    groups.Add(keys[id], id);
  }
  std::vector<std::pair<uint64_t, Block>> got = Groups(groups);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], std::make_pair(uint64_t{0}, Block{3, 5}));
  EXPECT_EQ(got[1], std::make_pair(uint64_t{5}, Block{1, 4}));
  EXPECT_EQ(got[2], std::make_pair(uint64_t{1} << 40, Block{2, 7}));
  EXPECT_EQ(got[3], std::make_pair(~uint64_t{0}, Block{0, 6}));
}

TEST(GroupByKeyTest, DoneStopsEmission) {
  GroupByKey groups;
  for (data::RecordId id = 0; id < 100; ++id) groups.Add(id / 2, id);
  LimitSink sink(7);
  groups.Emit(sink);
  ASSERT_EQ(sink.blocks.size(), 7u);
  for (size_t i = 0; i < sink.blocks.size(); ++i) {
    const data::RecordId first = static_cast<data::RecordId>(2 * i);
    EXPECT_EQ(sink.blocks[i], (Block{first, first + 1}));
  }
  EXPECT_EQ(groups.size(), 0u);  // the unread rest is discarded
}

TEST(GroupByKeyTest, ReusedAcrossTables) {
  GroupByKey groups;
  for (int table = 0; table < 3; ++table) {
    for (data::RecordId id = 0; id < 10; ++id) {
      groups.Add(static_cast<uint64_t>(table) * 100 + id % 3, id);
    }
    BlockCollection out;
    groups.Emit(out);
    ASSERT_EQ(out.NumBlocks(), 3u);
    EXPECT_EQ(out.blocks()[0], (Block{0, 3, 6, 9}));
    EXPECT_EQ(out.blocks()[2], (Block{2, 5, 8}));
  }
}

TEST(GroupByKeyTest, MatchesUnorderedMapReference) {
  Rng rng(20240917);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    // Few distinct keys relative to items, with random high bits so every
    // radix pass does work, and some ids appended twice.
    const size_t num_keys = 1 + rng.UniformIndex(400);
    std::vector<uint64_t> pool(num_keys);
    for (uint64_t& key : pool) {
      key = rng.UniformIndex(2) == 0
                ? static_cast<uint64_t>(rng.UniformInt(0, 1000))
                : Mix64(static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)));
    }
    GroupByKey groups;
    std::unordered_map<uint64_t, Block> reference;
    const data::RecordId n = 1 + static_cast<data::RecordId>(
                                     rng.UniformIndex(3000));
    for (data::RecordId id = 0; id < n; ++id) {
      const int repeats = 1 + static_cast<int>(rng.UniformIndex(3));
      for (int r = 0; r < repeats; ++r) {
        const uint64_t key = pool[rng.UniformIndex(pool.size())];
        groups.Add(key, id);
        reference[key].push_back(id);
      }
    }
    BlockCollection out;
    groups.Emit(out);

    std::vector<Block> want;
    for (auto& [key, block] : reference) {
      if (block.size() >= 2) want.push_back(block);
    }
    std::vector<Block> got = out.blocks();
    for (const Block& block : got) {
      EXPECT_TRUE(std::is_sorted(block.begin(), block.end()));
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

// The items of one seeded table: few distinct keys (so groups are large),
// some (key, id) items appended twice, and,
// with `sparse_digits`, keys that vary only in bytes 0, 2 and 5 so the
// sort skips the constant passes in between.
void AddSeededItems(GroupByKey& groups, size_t n, bool sparse_digits,
                    uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> pool(1 + rng.UniformIndex(300));
  for (uint64_t& key : pool) {
    if (!sparse_digits) {
      key = Mix64(rng.UniformIndex(1 << 30));
      continue;
    }
    key = rng.UniformIndex(256);
    key |= uint64_t{rng.UniformIndex(256)} << 16;
    key |= uint64_t{rng.UniformIndex(256)} << 40;
  }
  size_t added = 0;
  for (data::RecordId id = 0; added < n; ++id) {
    const size_t repeats = std::min<size_t>(1 + rng.UniformIndex(2),
                                            n - added);
    const uint64_t key = pool[rng.UniformIndex(pool.size())];
    for (size_t r = 0; r < repeats; ++r, ++added) groups.Add(key, id);
  }
}

TEST(GroupByKeyTest, ParallelSortMatchesSerialSort) {
  // Either side of the grain, with 1-4 chunks: every pass after the first
  // must count its chunks over the current order, not reuse the first
  // pass's per-chunk histograms.
  const size_t grain = GroupByKey::kSortGrain;
  for (size_t n : {grain - 1, grain, grain + 1, 2 * grain + 7,
                   4 * grain + 3}) {
    for (bool sparse_digits : {true, false}) {
      const uint64_t seed = n * 2 + (sparse_digits ? 1 : 0);
      GroupByKey serial;
      AddSeededItems(serial, n, sparse_digits, seed);
      const std::vector<std::pair<uint64_t, Block>> want = Groups(serial);
      ASSERT_FALSE(want.empty());
      for (int threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " sparse=" << sparse_digits
                     << " threads=" << threads);
        ParallelScope workers(threads);
        EXPECT_EQ(ParallelChunks(n, grain),
                  n <= grain ? 1 : std::min<size_t>(threads, (n + grain - 1) /
                                                                 grain));
        GroupByKey parallel;
        AddSeededItems(parallel, n, sparse_digits, seed);
        EXPECT_EQ(Groups(parallel), want);
      }
    }
  }
}

TEST(GroupByKeyTest, ExtendSlotsEqualAdds) {
  // Slots filled out of order (as chunks finish) hold the items Add()
  // would have appended in slot order.
  GroupByKey added;
  GroupByKey extended;
  added.Add(9, 0);
  extended.Add(9, 0);
  const GroupByKey::Slots slots = extended.Extend(50);
  for (size_t i = 50; i-- > 0;) {
    slots.keys[i] = i % 7;
    slots.ids[i] = static_cast<data::RecordId>(i + 1);
  }
  for (size_t i = 0; i < 50; ++i) {
    added.Add(i % 7, static_cast<data::RecordId>(i + 1));
  }
  EXPECT_EQ(extended.size(), 51u);
  EXPECT_EQ(Groups(extended), Groups(added));
}

}  // namespace
}  // namespace sablock::core
