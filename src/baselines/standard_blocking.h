#ifndef SABLOCK_BASELINES_STANDARD_BLOCKING_H_
#define SABLOCK_BASELINES_STANDARD_BLOCKING_H_

#include "baselines/blocking_key.h"
#include "core/blocking.h"

namespace sablock::baselines {

/// Traditional blocking ("TBlo", Fellegi & Sunter): records sharing the
/// exact blocking-key value form a block. The classic limitation the paper
/// motivates against — "Qing Wang" vs "Wang Qing" never share a block.
class StandardBlocking : public core::BlockingTechnique {
 public:
  explicit StandardBlocking(BlockingKeyDef key) : key_(std::move(key)) {}

  std::string name() const override { return "TBlo"; }
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_STANDARD_BLOCKING_H_
