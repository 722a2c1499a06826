// Structured, deterministic fork/join parallelism (header-only).
//
// Monte-Carlo sweeps in this project are embarrassingly parallel over task
// indices. The layer hands out index *chunks* from an atomic cursor to the
// *participants* of a call — the calling thread plus any pool helpers that
// join it — and each participant loops "claim the next chunk, run it" until
// the cursor is drained. The caller's lambda is invoked directly — the only
// type erasure is one function-pointer + context per parallel call, never a
// `std::function` per index. Callers derive their randomness from the task
// index alone (see sens/rng/rng.hpp), and `parallel_reduce` combines
// per-chunk partials in chunk order with a chunk layout that depends only on
// `n`, so every result is bit-identical regardless of the number of worker
// threads. This follows the C++ Core Guidelines CP rules: no shared mutable
// state inside tasks, joins are structured and exceptions propagate to the
// caller. Nested parallel calls are safe: an inner call issued from inside a
// parallel region runs as a single participant, inline on the calling
// worker (same chunk layout, hence the same deterministic result).
//
// The layer is *reentrant* (DESIGN.md §2.6): top-level calls issued
// concurrently from distinct user threads do not serialize. Every call owns
// its job state (chunk cursor, ticket and participant counts), the pool
// keeps a list of jobs with unclaimed helper tickets, and idle workers claim
// a ticket from the first such job. The submitting thread always
// participates in its own job and never blocks on another caller's job, so
// concurrent callers make progress even when the pool is saturated — they
// just receive fewer helpers. Determinism is unaffected: the chunk layout is
// a pure function of n, never of how many helpers a job happened to get.
//
// Design notes (DESIGN.md §2 records the full contract):
//   * chunk layout: ceil(n / 1024) indices per chunk, a pure function of n;
//   * working state (`parallel_for_chunks<State>`) is per participant, not
//     per chunk, and takes no lock: a batch of 1024 one-query chunks pays
//     no per-chunk synchronization beyond the cursor's fetch_add (§2.4);
//   * the worker pool is lazy, grows to the largest helper count requested,
//     and is shared by all concurrently active top-level calls;
//   * `set_thread_count(1)` (or a 1-core machine) short-circuits to the
//     serial inline path — no pool, no atomics beyond the cursor.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sens {

/// Number of workers used by default: hardware_concurrency, at least 1.
[[nodiscard]] inline unsigned default_thread_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Pool utilization tallies since process start. Scheduling-dependent
/// (helpers claim tickets as they get scheduled), so this is a *timing
/// observable* (DESIGN.md §2.10): stdout-only in bench footers, never
/// `--json`. Maintained unconditionally — all three counters move once per
/// parallel call (under a lock already held, or one relaxed add), never per
/// index, so the cost is unmeasurable.
struct PoolStats {
  std::uint64_t jobs = 0;           ///< top-level calls that engaged the pool
  std::uint64_t helper_claims = 0;  ///< helper tickets actually claimed
  std::uint64_t inline_calls = 0;   ///< calls that ran serial (want<=1 or nested)
};

namespace detail {

inline std::atomic<unsigned>& thread_override() {
  static std::atomic<unsigned> override_count{0};
  return override_count;
}

/// True while the current thread is executing chunks of a parallel call;
/// used to run nested calls inline instead of deadlocking on the pool.
inline bool& in_parallel_region() {
  thread_local bool in_region = false;
  return in_region;
}

/// RAII: mark the current thread as inside a parallel region; restores the
/// previous value on scope exit (exception-safe by construction).
struct RegionGuard {
  bool previous;
  RegionGuard() : previous(in_parallel_region()) { in_parallel_region() = true; }
  ~RegionGuard() { in_parallel_region() = previous; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
};

/// Deterministic chunk layout: a pure function of n (never of the worker
/// count), so per-chunk reduction partials are identical at any parallelism.
inline constexpr std::size_t kMaxChunks = 1024;

[[nodiscard]] constexpr std::size_t chunk_size_for(std::size_t n) {
  const std::size_t cs = (n + kMaxChunks - 1) / kMaxChunks;
  return cs == 0 ? 1 : cs;
}

[[nodiscard]] constexpr std::size_t chunk_count_for(std::size_t n) {
  const std::size_t cs = chunk_size_for(n);
  return (n + cs - 1) / cs;
}

/// One parallel call: a participant function pointer + untyped context
/// (erased once per call), an atomic cursor handing out chunks, and the
/// first exception. `tickets` / `active` are the pool's per-job bookkeeping
/// (§2.6): helper slots not yet claimed and helpers currently inside work().
/// Both are guarded by the pool mutex, never touched by the job itself.
struct ParallelJob {
  /// One participant: claims chunks with `claim` until it returns false.
  using ParticipantFn = void (*)(void* ctx, ParallelJob& job);

  ParticipantFn participant;
  void* ctx;
  std::size_t n;
  std::size_t chunk;
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  unsigned tickets = 0;  ///< unclaimed helper slots (pool mutex)
  unsigned active = 0;   ///< helpers inside work() (pool mutex)

  ParallelJob(ParticipantFn fn, void* context, std::size_t count, std::size_t chunk_sz)
      : participant(fn), ctx(context), n(count), chunk(chunk_sz) {}

  /// Claim the next chunk [begin, end); false once the cursor is drained.
  [[nodiscard]] bool claim(std::size_t& begin, std::size_t& end) noexcept {
    begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= n) return false;
    end = begin + chunk < n ? begin + chunk : n;
    return true;
  }

  /// Run one participant of a pooled job: the submitting thread and every
  /// helper call this. The first exception is kept for the caller and
  /// drains the cursor, so every other participant stops at its next claim.
  void work() {
    const RegionGuard region;
    try {
      participant(ctx, *this);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      cursor.store(n, std::memory_order_relaxed);
    }
  }
};

/// Persistent worker pool. Lazily constructed on the first parallel call
/// that wants helpers; grows up to the largest helper count requested
/// (bounded by kMaxPoolThreads); joined at process exit.
///
/// Reentrant (DESIGN.md §2.6): the pool keeps a list of concurrently active
/// jobs instead of a single slot guarded by a run mutex. Every `run` call
/// publishes its job with a helper-ticket budget, participates in its own
/// job, and on return waits only for the helpers that actually claimed one
/// of *its* tickets. Idle workers claim a ticket from the first job that
/// still has one, so simultaneous top-level calls from distinct user
/// threads share the pool instead of serializing, and no caller ever blocks
/// on another caller's job.
class WorkerPool {
 public:
  static constexpr unsigned kMaxPoolThreads = 256;

  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Execute `job` with up to `helpers` pool threads assisting the caller.
  /// Safe to call concurrently from any number of user threads.
  void run(ParallelJob& job, unsigned helpers) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ensure_workers(helpers);
      if (threads_.size() < helpers) helpers = static_cast<unsigned>(threads_.size());
      job.tickets = helpers;
      job.active = 0;
      jobs_.push_back(&job);
      ++stat_jobs_;
    }
    cv_.notify_all();
    job.work();  // the caller is always a participant in its own job
    std::unique_lock<std::mutex> lock(mutex_);
    // The caller only returns from work() once the cursor is drained, so any
    // worker that has not yet claimed its ticket would find no work anyway —
    // abandon unclaimed tickets rather than waiting for every helper to be
    // scheduled just to notice the job is done.
    job.tickets = 0;
    done_cv_.wait(lock, [&] { return job.active == 0; });
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    // Helpers' writes into caller-visible buffers happened before they
    // released mutex_ (decrementing job.active under the lock), and the
    // caller holds mutex_ here — the join is a proper happens-before edge.
  }

  /// Jobs run and helper tickets claimed so far (PoolStats minus the
  /// inline-call tally, which lives outside the pool).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> stat_counts() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {stat_jobs_, stat_helper_claims_};
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void ensure_workers(unsigned helpers) {  // requires mutex_ held
    if (helpers > kMaxPoolThreads) helpers = kMaxPoolThreads;
    while (threads_.size() < helpers) threads_.emplace_back([this] { worker_loop(); });
  }

  /// First job with an unclaimed helper ticket, or nullptr (requires mutex_).
  [[nodiscard]] ParallelJob* claimable_job() {
    for (ParallelJob* job : jobs_) {
      if (job->tickets > 0) return job;
    }
    return nullptr;
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ParallelJob* job = nullptr;
      cv_.wait(lock, [&] { return stop_ || (job = claimable_job()) != nullptr; });
      if (stop_) return;
      --job->tickets;
      ++job->active;
      ++stat_helper_claims_;
      lock.unlock();
      job->work();
      lock.lock();
      --job->active;
      // notify_all: several callers may be waiting, each on its own job.
      if (job->tickets == 0 && job->active == 0) done_cv_.notify_all();
    }
  }

  std::mutex mutex_;  ///< guards all state below + per-job tickets/active
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::vector<ParallelJob*> jobs_;  ///< concurrently active top-level calls
  bool stop_ = false;
  std::uint64_t stat_jobs_ = 0;           ///< guarded by mutex_
  std::uint64_t stat_helper_claims_ = 0;  ///< guarded by mutex_
};

/// Serial parallel_* invocations (want<=1 or nested) never reach the pool;
/// tallied here for PoolStats.
inline std::atomic<std::uint64_t>& inline_call_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// The one driver behind every parallel_* call: run `fn(ctx, job)` once
/// per participant over [0, n) in the chunk layout of `n`. The serial path
/// (single participant or nested call) runs it once on the calling thread,
/// which then claims every chunk in chunk order, so reductions stay
/// bit-identical and exceptions propagate directly.
inline void run_participants(std::size_t n, ParallelJob::ParticipantFn fn, void* ctx) {
  if (n == 0) return;
  ParallelJob job(fn, ctx, n, chunk_size_for(n));
  const std::size_t chunks = chunk_count_for(n);
  unsigned want = 0;  // participants, caller included
  {
    const unsigned configured = thread_override().load(std::memory_order_relaxed);
    const unsigned cap = configured == 0 ? default_thread_count() : configured;
    want = chunks < cap ? static_cast<unsigned>(chunks) : cap;
  }
  if (want <= 1 || in_parallel_region()) {
    inline_call_count().fetch_add(1, std::memory_order_relaxed);
    const RegionGuard region;
    fn(ctx, job);
    return;
  }
  WorkerPool::instance().run(job, want - 1);
  if (job.error) std::rethrow_exception(job.error);
}

/// Participant loop of `parallel_for_chunks<State>`: claim chunks until the
/// cursor drains, building `State` only once a first chunk is claimed (a
/// helper that arrives after the drain allocates nothing).
template <typename State, typename Body>
void run_participant(void* ctx, ParallelJob& job) {
  Body& body = *static_cast<Body*>(ctx);
  std::size_t begin = 0;
  std::size_t end = 0;
  if (!job.claim(begin, end)) return;
  if constexpr (std::is_void_v<State>) {
    do {
      body(begin, end);
    } while (job.claim(begin, end));
  } else {
    State state{};
    do {
      body(state, begin, end);
    } while (job.claim(begin, end));
  }
}

}  // namespace detail

/// The deterministic chunk layout used by every parallel_* call: a pure
/// function of `n`, never of the worker count. Callers that collect
/// per-chunk results (e.g. the UDG builder's per-chunk edge buffers) index
/// them with `index_of(begin)` and concatenate in chunk order, which makes
/// the concatenation identical to a serial left-to-right pass at any thread
/// count (DESIGN.md §2.3).
struct ChunkLayout {
  std::size_t size;   ///< indices per chunk, ceil(n / 1024) (>= 1)
  std::size_t count;  ///< number of chunks covering [0, n)

  /// Chunk index of the chunk starting at `begin` (as handed to the body of
  /// `parallel_for_chunks`).
  [[nodiscard]] constexpr std::size_t index_of(std::size_t begin) const { return begin / size; }
};

[[nodiscard]] constexpr ChunkLayout chunk_layout(std::size_t n) {
  return {detail::chunk_size_for(n), detail::chunk_count_for(n)};
}

/// Globally override the worker count (0 = use default_thread_count()).
/// Intended for tests and benchmarks that need serial execution.
inline void set_thread_count(unsigned n) {
  detail::thread_override().store(n, std::memory_order_relaxed);
}
[[nodiscard]] inline unsigned thread_count() {
  const unsigned n = detail::thread_override().load(std::memory_order_relaxed);
  return n == 0 ? default_thread_count() : n;
}

/// Snapshot of pool utilization since process start (see PoolStats).
[[nodiscard]] inline PoolStats pool_stats() {
  PoolStats out;
  const auto [jobs, claims] = detail::WorkerPool::instance().stat_counts();
  out.jobs = jobs;
  out.helper_claims = claims;
  out.inline_calls = detail::inline_call_count().load(std::memory_order_relaxed);
  return out;
}

/// Invoke `body(begin, end)` for half-open chunks covering [0, n), in the
/// deterministic chunk layout `chunk_layout(n)`. Use this when per-task
/// state is worth hoisting out of the per-index loop.
///
/// With a `State` argument, `body(state, begin, end)` receives the working
/// state of the participant running the chunk: scratch buffers a chunk
/// needs but whose contents never reach the result (DESIGN.md §2.4), e.g.
///
///   parallel_for_chunks<DijkstraScratch>(
///       n, [&](DijkstraScratch& s, std::size_t b, std::size_t e) { ... });
///
/// Each participant default-constructs one State on its first claimed chunk
/// and reuses it for every later chunk it claims; the state is never shared
/// between threads and dies when the call returns. At most thread_count()
/// States are built per call — exactly one on the serial path. Which
/// participant runs a chunk is scheduling-dependent, so results must not
/// depend on what an earlier chunk left in the state; per-chunk *results*
/// belong in slots indexed by `chunk_layout(n).index_of(begin)`.
template <typename State = void, typename Body>
void parallel_for_chunks(std::size_t n, Body&& body) {
  using BodyT = std::remove_reference_t<Body>;
  detail::run_participants(n, &detail::run_participant<State, BodyT>,
                           const_cast<std::remove_const_t<BodyT>*>(std::addressof(body)));
}

/// Invoke `body(i)` for every i in [0, n). Order is unspecified; the call
/// returns after all invocations complete. The first exception thrown by any
/// task is rethrown in the caller. Safe to call from inside another parallel
/// call (the nested loop runs inline on the calling worker).
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  parallel_for_chunks(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Deterministic map-reduce over [0, n): each chunk left-folds `map(i)` with
/// `combine` in index order, and the per-chunk partials are folded onto
/// `init` in chunk order after the join. Because the chunk layout depends
/// only on `n`, the result is bit-identical at every thread count (including
/// non-associative floating-point combines). T must be default-constructible
/// and movable.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t n, T init, Map&& map, Combine&& combine) {
  static_assert(!std::is_same_v<T, bool>,
                "parallel_reduce<bool> would race on std::vector<bool>'s packed storage; "
                "reduce to an integer count instead");
  const ChunkLayout layout = chunk_layout(n);
  std::vector<T> partials(layout.count);
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    T acc = map(begin);
    for (std::size_t i = begin + 1; i < end; ++i) acc = combine(std::move(acc), map(i));
    partials[layout.index_of(begin)] = std::move(acc);
  });
  T total = std::move(init);
  for (T& p : partials) total = combine(std::move(total), std::move(p));
  return total;
}

/// Map-reduce over [0, n): each task computes a double, the results are
/// summed deterministically (per-chunk partials in chunk order).
template <typename Task>
[[nodiscard]] double parallel_sum(std::size_t n, Task&& task) {
  return parallel_reduce(
      n, 0.0, std::forward<Task>(task), [](double a, double b) { return a + b; });
}

/// Map over [0, n) into a vector (results placed at their task index).
template <typename T, typename Task>
[[nodiscard]] std::vector<T> parallel_map(std::size_t n, Task&& task) {
  static_assert(!std::is_same_v<T, bool>,
                "parallel_map<bool> would race on std::vector<bool>'s packed storage; "
                "map to std::uint8_t instead");
  std::vector<T> out(n);
  parallel_for(n, [&out, &task](std::size_t i) { out[i] = task(i); });
  return out;
}

}  // namespace sens
