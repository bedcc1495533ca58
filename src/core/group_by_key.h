#ifndef SABLOCK_CORE_GROUP_BY_KEY_H_
#define SABLOCK_CORE_GROUP_BY_KEY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/block_sink.h"
#include "data/record.h"

namespace sablock::core {

/// The key-grouping core of the hash-keyed blockers (LSH, SA-LSH, the LSH
/// variants, q-gram indexing, token blocking): a caller appends the
/// (key, id) items of one table, then Emit() sorts them by key and turns
/// every run of equal keys into one block. Sort-based grouping replaces a
/// hash map of per-key vectors: one pass over two flat arrays, no per-key
/// allocation for the (usually many) singleton keys.
///
/// Ordering contract: groups leave in ascending key order. The sort is a
/// stable LSD radix sort, so ids keep their insertion order within a
/// group — ascending whenever the caller appends records in ascending id
/// order, as every blocker does. An identical (key, id) item appended
/// twice stays twice in its group.
///
/// The item and scratch buffers are reused: Emit()/ForEachGroup() clear
/// the items but keep the capacity, so one GroupByKey serves every table
/// of a Run without reallocating.
class GroupByKey {
 public:
  void Reserve(size_t n) {
    keys_.reserve(n);
    ids_.reserve(n);
  }

  void Add(uint64_t key, data::RecordId id) {
    keys_.push_back(key);
    ids_.push_back(id);
  }

  size_t size() const { return keys_.size(); }

  /// Sorts the items and streams every group of >= 2 ids into `sink` as
  /// one block, in ascending key order. Polls sink.Done() before each
  /// block and stops there. Clears the items.
  void Emit(BlockSink& sink);

  /// Sorts the items and calls `fn(key, ids)` for every group of >= 2
  /// ids, in ascending key order, until `fn` returns false. `ids` views
  /// the internal buffer: it is valid only during the call. Clears the
  /// items.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) {
    Sort();
    const size_t n = keys_.size();
    for (size_t begin = 0, end = 0; begin < n; begin = end) {
      end = begin + 1;
      while (end < n && keys_[end] == keys_[begin]) ++end;
      if (end - begin < 2) continue;
      if (!fn(keys_[begin], std::span<const data::RecordId>(
                                ids_.data() + begin, end - begin))) {
        break;
      }
    }
    keys_.clear();
    ids_.clear();
  }

 private:
  /// Stable LSD radix sort of (keys_, ids_) by key, one byte per pass;
  /// passes whose byte is the same in every key are skipped.
  void Sort();

  std::vector<uint64_t> keys_;
  std::vector<data::RecordId> ids_;
  std::vector<uint64_t> key_scratch_;
  std::vector<data::RecordId> id_scratch_;
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_GROUP_BY_KEY_H_
