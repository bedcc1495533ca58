#include "common/parallel.h"

#include <algorithm>

#include "engine/thread_pool.h"

namespace sablock {

namespace {

// The pool ParallelFor on this thread may use; null with no scope, on
// pool threads, and while this thread runs a job's chunks.
thread_local engine::ThreadPool* t_pool = nullptr;

}  // namespace

ParallelScope::ParallelScope(int threads) : previous_(t_pool) {
  if (threads > 1) pool_ = std::make_unique<engine::ThreadPool>(threads - 1);
  t_pool = pool_.get();
}

ParallelScope::~ParallelScope() { t_pool = previous_; }

int ParallelWorkers() {
  return t_pool == nullptr ? 1 : t_pool->num_threads() + 1;
}

size_t ParallelChunks(size_t n, size_t grain) {
  const size_t wanted = (n + std::max<size_t>(grain, 1) - 1) /
                        std::max<size_t>(grain, 1);
  return std::clamp<size_t>(wanted, 1,
                            static_cast<size_t>(ParallelWorkers()));
}

void ForEachChunk(size_t n, size_t chunks,
                  const std::function<void(size_t, size_t, size_t)>& fn) {
  auto run_chunk = [n, chunks, &fn](size_t c) {
    const auto [begin, end] = ChunkBounds(n, chunks, c);
    fn(c, begin, end);
  };
  engine::ThreadPool* pool = t_pool;
  if (pool == nullptr || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  // Chunks 1.. go to the pool, chunk 0 runs here; a ParallelFor nested in
  // any chunk runs inline.
  t_pool = nullptr;
  for (size_t c = 1; c < chunks; ++c) {
    pool->Submit([&run_chunk, c] { run_chunk(c); });
  }
  run_chunk(0);
  pool->Wait();
  t_pool = pool;
}

}  // namespace sablock
