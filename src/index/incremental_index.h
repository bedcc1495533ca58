#ifndef SABLOCK_INDEX_INCREMENTAL_INDEX_H_
#define SABLOCK_INDEX_INCREMENTAL_INDEX_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/block_sink.h"
#include "core/blocking.h"
#include "data/record.h"

namespace sablock::index {

/// A blocking technique reorganized as a mutable index: instead of one
/// batch pass over a frozen Dataset, records are inserted (and removed)
/// one at a time and "which records could match this one?" is answerable
/// at any point — the serving-side counterpart of core::BlockingTechnique.
///
/// Contract:
///  - Bind(schema) is called exactly once, before any other call; it
///    resolves attribute positions and reports missing required
///    attributes.
///  - Insert(id, values) indexes one record. `id` is assigned by the
///    caller (the CandidateService uses the backing Dataset's record id)
///    and must be fresh — ids are never reused, and inserts normally
///    arrive in increasing id order (the order the backing store appends).
///  - Remove(id) un-indexes a record; returns false if `id` is not live.
///  - Query(values) returns the sorted distinct ids of the live records
///    that would share a block with the probe if it were inserted next.
///    The probe itself is NOT inserted.
///  - EmitBlocks(sink) streams the current blocks. Parity guarantee:
///    after Bind + Insert of every record of a dataset in id order, the
///    emitted blocks equal (as a multiset of record-id sets) the blocks
///    of the batch technique built from the same spec string — the
///    golden index/batch parity test enforces this for every registered
///    index. Key-ordered indexes (token postings, sorted neighbourhood)
///    reproduce the batch emission byte-identically, sequence included.
///
/// Thread-safety: none. All methods, including Query and EmitBlocks,
/// must be externally serialized; service::CandidateService wraps an
/// index in a reader/writer lock (Query/EmitBlocks are const and take
/// the shared side — implementations must not mutate under const).
class IncrementalIndex {
 public:
  virtual ~IncrementalIndex() = default;

  /// Short identifier, e.g. "lsh-index(k=4,l=63)".
  virtual std::string name() const = 0;

  /// Binds the index to the record schema. Must be called exactly once,
  /// before any Insert/Remove/Query/EmitBlocks.
  virtual Status Bind(const data::Schema& schema) = 0;

  /// Indexes record `id` with the given attribute values (aligned with
  /// the bound schema). `id` must not be live.
  virtual void Insert(data::RecordId id,
                      std::span<const std::string_view> values) = 0;

  /// Un-indexes record `id`; false if it was not live.
  virtual bool Remove(data::RecordId id) = 0;

  /// Candidate ids for a probe record (sorted, distinct, excludes ids
  /// that are not live). The probe is not inserted.
  virtual std::vector<data::RecordId> Query(
      std::span<const std::string_view> values) const = 0;

  /// Streams the current blocks (deterministic order; see the parity
  /// guarantee above).
  virtual void EmitBlocks(core::BlockSink& sink) const = 0;

  /// Number of live (inserted and not removed) records.
  virtual size_t size() const = 0;
};

/// Resolves an index's blocking attributes to positions in the bound
/// schema, once per Bind; an error names the first attribute the schema
/// lacks.
Status ResolveAttributes(const data::Schema& schema,
                         const std::vector<std::string>& attributes,
                         std::vector<int>* positions);

/// Equivalence bridge, batch side -> index side: binds `index` to the
/// dataset's schema and inserts every record in id order. Aborts on a
/// Bind error (caller bug: the spec's attributes must exist in the
/// schema). After this, EmitBlocks reproduces the batch technique.
void LoadDataset(IncrementalIndex& index, const data::Dataset& dataset);

/// Canonical serialization of a block multiset: every block's ids sorted,
/// blocks sorted lexicographically, rendered one block per line. Two
/// collections with equal canonical bytes contain exactly the same
/// blocks — the representation the index/batch parity goldens compare.
std::string CanonicalBlockBytes(const core::BlockCollection& blocks);

/// Collects EmitBlocks output into a BlockCollection.
core::BlockCollection CollectBlocks(const IncrementalIndex& index);

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_INCREMENTAL_INDEX_H_
