// Tests for the streaming BlockSink API: collecting/counting equivalence
// and early termination through a BudgetedSink's comparison budget.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/registry.h"
#include "core/block_sink.h"
#include "core/blocking.h"
#include "core/budget.h"
#include "data/record.h"

namespace sablock::core {
namespace {

using data::Dataset;
using data::Record;
using data::Schema;

// A dataset whose sorted-neighbourhood run emits many windows, so a small
// comparison budget stops well before the end.
Dataset ManyNamesDataset(size_t n = 64) {
  Dataset d{Schema({"name"})};
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.values = {"name" + std::to_string(100 + i)};
    d.Add(std::move(r), static_cast<data::EntityId>(i));
  }
  return d;
}

std::shared_ptr<BudgetMeter> PairsMeter(uint64_t pairs) {
  return std::make_shared<BudgetMeter>(Budget{.pairs = pairs});
}

std::unique_ptr<BlockingTechnique> Make(const std::string& spec) {
  std::unique_ptr<BlockingTechnique> technique;
  Status status = api::BlockerRegistry::Global().Create(spec, &technique);
  EXPECT_TRUE(status.ok()) << status.message();
  return technique;
}

TEST(BlockSinkTest, PairCountingSinkMatchesCollection) {
  Dataset d = ManyNamesDataset();
  std::unique_ptr<BlockingTechnique> technique =
      Make("lsh:k=2,l=8,q=2,attrs=name");

  BlockCollection collected;
  technique->Run(d, collected);
  PairCountingSink counted;
  technique->Run(d, counted);
  EXPECT_EQ(counted.num_blocks(), collected.NumBlocks());
  EXPECT_EQ(counted.comparisons(), collected.TotalComparisons());
  EXPECT_EQ(counted.total_block_sizes(), collected.TotalBlockSizes());
  EXPECT_EQ(counted.max_block_size(), collected.MaxBlockSize());
}

TEST(BudgetedSinkTest, StopsTheTechniqueAtTheComparisonBudget) {
  Dataset d = ManyNamesDataset();
  std::unique_ptr<BlockingTechnique> technique =
      Make("sor-a:window=3,attrs=name");

  BlockCollection full;
  technique->Run(d, full);
  ASSERT_GT(full.TotalComparisons(), 50u);

  BlockCollection capped_out;
  BudgetedSink capped(capped_out, PairsMeter(20));
  technique->Run(d, capped);

  EXPECT_TRUE(capped.Done());
  // The budget is enforced up to the block that crosses it (window=3 blocks
  // carry 3 comparisons each).
  EXPECT_GE(capped.meter()->Spent(), 20u);
  EXPECT_LT(capped.meter()->Spent(), 20u + 3);
  EXPECT_EQ(capped_out.TotalComparisons(), capped.meter()->Spent());
  // Early termination, not post-hoc filtering: the technique saw Done()
  // and emitted nothing more.
  EXPECT_EQ(capped.dropped_blocks(), 0u);
  EXPECT_LT(capped_out.NumBlocks(), full.NumBlocks());
}

TEST(BudgetedSinkTest, EveryRegisteredTechniqueHonoursTheBudget) {
  Dataset d = ManyNamesDataset(48);
  for (const api::BlockerInfo& info :
       api::BlockerRegistry::Global().List()) {
    std::string spec = info.name + ":attrs=name";
    std::unique_ptr<BlockingTechnique> technique = Make(spec);
    BlockCollection out;
    BudgetedSink capped(out, PairsMeter(10));
    technique->Run(d, capped);
    // Whatever the technique, the collected output never exceeds the
    // budget by more than its final block.
    EXPECT_EQ(out.TotalComparisons(), capped.meter()->Spent()) << spec;
    if (out.NumBlocks() > 1) {
      uint64_t last = out.blocks().back().size();
      EXPECT_LT(capped.meter()->Spent(), 10u + last * (last - 1) / 2 + 1)
          << spec;
    }
  }
}

TEST(BudgetedSinkTest, GenerousBudgetChangesNothing) {
  Dataset d = ManyNamesDataset();
  std::unique_ptr<BlockingTechnique> technique =
      Make("sor-a:window=3,attrs=name");

  BlockCollection full;
  technique->Run(d, full);
  BlockCollection capped_out;
  BudgetedSink capped(capped_out, PairsMeter(1u << 30));
  technique->Run(d, capped);
  EXPECT_FALSE(capped.Done());
  EXPECT_EQ(capped_out.NumBlocks(), full.NumBlocks());
  EXPECT_EQ(capped_out.TotalComparisons(), full.TotalComparisons());
}

TEST(BlockCollectionTest, DrainMovesBlocksAndRespectsDone) {
  BlockCollection source;
  for (uint32_t i = 0; i < 10; ++i) source.Add({i, i + 1});

  BlockCollection sink_out;
  BudgetedSink capped(sink_out, PairsMeter(3));
  source.Drain(capped);
  EXPECT_EQ(source.NumBlocks(), 0u);  // drained
  EXPECT_EQ(sink_out.NumBlocks(), 3u);
  EXPECT_EQ(capped.dropped_blocks(), 0u);
}

}  // namespace
}  // namespace sablock::core
