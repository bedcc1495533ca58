#ifndef SABLOCK_TESTS_RUN_STREAMING_H_
#define SABLOCK_TESTS_RUN_STREAMING_H_

#include "core/blocking.h"
#include "data/record.h"

namespace sablock {

/// Runs a technique through Run(dataset, sink) into a BlockCollection and
/// returns the emitted blocks.
inline core::BlockCollection RunStreaming(
    const core::BlockingTechnique& technique, const data::Dataset& dataset) {
  core::BlockCollection blocks;
  technique.Run(dataset, blocks);
  return blocks;
}

}  // namespace sablock

#endif  // SABLOCK_TESTS_RUN_STREAMING_H_
