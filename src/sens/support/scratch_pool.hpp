// A transient free-list of scratch objects for chunk-parallel batch calls.
//
// The batched engines (dijkstra_many_into, bfs_many_into, the serve-layer
// QueryEngine)
// want one warm scratch per *participant* of a parallel call: a scratch per
// chunk would reintroduce the per-source O(n) allocation the versioned
// scratches exist to remove (a chunk frequently holds a single source), and
// the `thread_local` per-worker scratch the tree used before PR 6 retained
// one allocation sized to the last graph for the lifetime of every worker
// thread (the PR-4 flagged risk). A ScratchPool is the middle ground: it
// lives on the caller's stack for the duration of one batched call, chunk
// bodies lease a scratch (LIFO, so a worker that processes consecutive
// chunks gets its warm scratch back), and every allocation dies with the
// pool when the call returns. The lock is taken once per chunk — noise next
// to the traversal work a chunk performs.
//
// Determinism is unaffected: which scratch a chunk happens to lease never
// influences results, because scratch contents are opaque working memory and
// every output slot depends only on (inputs, task index) — the §2.4/§2.6
// contract (DESIGN.md).
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace sens {

template <typename T>
class ScratchPool {
 public:
  /// RAII lease: returns the scratch to the pool on destruction. The pool
  /// must outlive every lease (the intended shape: pool on the stack of the
  /// batched call, leases inside the parallel chunk bodies it joins).
  class Lease {
   public:
    Lease(ScratchPool* pool, std::unique_ptr<T> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    ~Lease() {
      if (scratch_) pool_->release(std::move(scratch_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), scratch_(std::move(other.scratch_)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    [[nodiscard]] T& operator*() const { return *scratch_; }
    [[nodiscard]] T* operator->() const { return scratch_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<T> scratch_;
  };

  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// Lease a scratch: the most recently released one (warm), or a fresh
  /// default-constructed one when all are out on loan.
  [[nodiscard]] Lease acquire() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<T> scratch = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(scratch));
      }
    }
    return Lease(this, std::make_unique<T>());
  }

 private:
  void release(std::unique_ptr<T> scratch) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(scratch));
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace sens
