#ifndef SABLOCK_COMMON_PARALLEL_H_
#define SABLOCK_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

namespace sablock {

/// Fork-join parallelism inside one computation (a feature column, a
/// band table, a radix-sort pass). Workers are installed on the calling
/// thread by a ParallelScope; without one — the default everywhere —
/// ParallelFor runs inline, so a library routine that calls it stays
/// exactly serial unless its caller opted in (the engine does, for a
/// one-shard run at threads > 1).
///
/// Determinism: [0, n) is cut into contiguous chunks whose bounds depend
/// only on (n, chunk count), and every chunk runs to completion before
/// ParallelFor returns. Work that writes only its own preassigned slots
/// therefore produces the same bytes at any worker count.
///
/// A chunk runs with no workers installed, so a ParallelFor nested inside
/// one runs inline (no oversubscription, no deadlock on a busy pool).
/// Chunks must not throw (the library is exception-free, as for
/// engine::ThreadPool).

namespace engine {
class ThreadPool;
}  // namespace engine

/// Installs `threads` workers on the calling thread until destruction:
/// the caller is one of them, so an engine::ThreadPool of threads - 1 is
/// spawned, once, and reused by every ParallelFor in the scope.
/// threads <= 1 installs no workers: ParallelFor runs inline. Scopes
/// nest; the inner one wins until it ends.
class ParallelScope {
 public:
  explicit ParallelScope(int threads);
  ~ParallelScope();

  ParallelScope(const ParallelScope&) = delete;
  ParallelScope& operator=(const ParallelScope&) = delete;

 private:
  std::unique_ptr<engine::ThreadPool> pool_;
  engine::ThreadPool* previous_ = nullptr;
};

/// Workers ParallelFor may use on this thread (1 with no scope installed,
/// and inside a chunk).
int ParallelWorkers();

/// Records per chunk below which per-record feature work (text, shingles,
/// minhash, semantic interpretation) is not worth splitting. Low enough
/// that a Cora-size column (~2k records, tens of microseconds of minhash
/// per record) still splits four ways.
inline constexpr size_t kRecordGrain = 256;

/// The chunk count ParallelFor uses for n items: ceil(n / grain), capped
/// at ParallelWorkers(), at least 1. So n <= grain always runs inline.
size_t ParallelChunks(size_t n, size_t grain);

/// [begin, end) of chunk `c` of `chunks` near-equal contiguous pieces of
/// [0, n); the first n % chunks pieces are one longer.
inline std::pair<size_t, size_t> ChunkBounds(size_t n, size_t chunks,
                                             size_t c) {
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  const size_t begin = c * base + (c < extra ? c : extra);
  return {begin, begin + base + (c < extra ? 1 : 0)};
}

/// Calls fn(c, begin, end) for every chunk c of [0, n) cut into `chunks`
/// pieces (ChunkBounds), on the installed workers, and returns when all
/// have finished. Without workers the chunks run inline in order.
void ForEachChunk(size_t n, size_t chunks,
                  const std::function<void(size_t, size_t, size_t)>& fn);

/// Calls fn(begin, end) over the ParallelChunks(n, grain) chunks of
/// [0, n). One chunk runs inline with no dispatch at all.
template <typename Fn>
void ParallelFor(size_t n, size_t grain, Fn&& fn) {
  const size_t chunks = ParallelChunks(n, grain);
  if (chunks <= 1) {
    if (n > 0) fn(size_t{0}, n);
    return;
  }
  ForEachChunk(n, chunks,
               [&fn](size_t, size_t begin, size_t end) { fn(begin, end); });
}

}  // namespace sablock

#endif  // SABLOCK_COMMON_PARALLEL_H_
