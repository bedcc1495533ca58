#include "core/group_by_key.h"

#include <array>
#include <utility>

#include "common/check.h"

namespace sablock::core {

namespace {

constexpr int kDigitBits = 8;
constexpr int kDigits = 64 / kDigitBits;
constexpr size_t kRadix = size_t{1} << kDigitBits;

inline size_t Digit(uint64_t key, int pass) {
  return static_cast<size_t>(key >> (pass * kDigitBits)) & (kRadix - 1);
}

}  // namespace

void GroupByKey::Sort() {
  const size_t n = keys_.size();
  if (n < 2) return;
  SABLOCK_CHECK(n <= UINT32_MAX);  // 32-bit bucket offsets
  // Every pass's histogram in one read of the keys.
  std::array<std::array<uint32_t, kRadix>, kDigits> counts{};
  for (uint64_t key : keys_) {
    for (int pass = 0; pass < kDigits; ++pass) ++counts[pass][Digit(key, pass)];
  }
  key_scratch_.resize(n);
  id_scratch_.resize(n);
  for (int pass = 0; pass < kDigits; ++pass) {
    std::array<uint32_t, kRadix>& count = counts[pass];
    // All keys share this digit: the pass would be the identity.
    if (count[Digit(keys_[0], pass)] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& c : count) {
      const uint32_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t at = count[Digit(keys_[i], pass)]++;
      key_scratch_[at] = keys_[i];
      id_scratch_[at] = ids_[i];
    }
    keys_.swap(key_scratch_);
    ids_.swap(id_scratch_);
  }
}

void GroupByKey::Emit(BlockSink& sink) {
  ForEachGroup([&sink](uint64_t, std::span<const data::RecordId> ids) {
    if (sink.Done()) return false;
    sink.Consume(Block(ids.begin(), ids.end()));
    return true;
  });
}

}  // namespace sablock::core
