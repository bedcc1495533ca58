#include "core/group_by_key.h"

#include <array>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"

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
  // counts[c][pass][digit]: chunk c's digit histogram for each pass.
  using Histograms = std::array<std::array<uint32_t, kRadix>, kDigits>;
  const size_t chunks = ParallelChunks(n, kSortGrain);
  std::vector<Histograms> counts(chunks);
  // Every pass's histogram in one read of the keys. A digit's total over
  // all chunks does not depend on the order, so these totals decide the
  // skipped passes; with one chunk they are also every pass's counts.
  ForEachChunk(n, chunks, [&](size_t c, size_t begin, size_t end) {
    const uint64_t* keys = keys_.data();
    Histograms& count = counts[c];
    for (size_t i = begin; i < end; ++i) {
      for (int pass = 0; pass < kDigits; ++pass) {
        ++count[pass][Digit(keys[i], pass)];
      }
    }
  });
  key_scratch_.resize(n);
  id_scratch_.resize(n);
  bool first_pass = true;
  for (int pass = 0; pass < kDigits; ++pass) {
    const uint64_t* keys = keys_.data();
    const data::RecordId* ids = ids_.data();
    uint64_t* key_out = key_scratch_.data();
    data::RecordId* id_out = id_scratch_.data();
    // All keys share this digit: the pass would be the identity.
    const size_t digit0 = Digit(keys[0], pass);
    uint32_t total = 0;
    for (const Histograms& count : counts) total += count[pass][digit0];
    if (total == n) continue;
    // A chunk's histogram holds for the order it was counted in: after
    // the first scatter, count the chunks of the current order again.
    if (!first_pass && chunks > 1) {
      ForEachChunk(n, chunks, [&](size_t c, size_t begin, size_t end) {
        std::array<uint32_t, kRadix>& count = counts[c][pass];
        count.fill(0);
        for (size_t i = begin; i < end; ++i) ++count[Digit(keys[i], pass)];
      });
    }
    first_pass = false;
    // Offsets digit-major, then chunk: chunk c's items of a digit land
    // after the lower chunks' items of that digit, which keeps it stable.
    uint32_t offset = 0;
    for (size_t digit = 0; digit < kRadix; ++digit) {
      for (Histograms& count : counts) {
        const uint32_t bucket = count[pass][digit];
        count[pass][digit] = offset;
        offset += bucket;
      }
    }
    ForEachChunk(n, chunks, [&](size_t c, size_t begin, size_t end) {
      std::array<uint32_t, kRadix>& next = counts[c][pass];
      for (size_t i = begin; i < end; ++i) {
        const uint32_t at = next[Digit(keys[i], pass)]++;
        key_out[at] = keys[i];
        id_out[at] = ids[i];
      }
    });
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
