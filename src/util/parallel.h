// Deterministic data parallelism for the two stages that measurably gain
// from it: FEM element assembly and per-deck batch runs (the CLI's deck
// batches and `feio bench`'s batch cell). IDLZ and OSPL run each deck
// serially; their per-stage loops never beat serial.
//
// Design rules, in priority order:
//   1. Determinism. Work is split into a fixed number of *contiguous,
//      index-ordered chunks*; callers merge per-chunk results in chunk
//      order, which reconstructs exactly the serial order. Output is
//      byte-identical for any thread count, including 1.
//   2. No work stealing, no dynamic scheduling of chunk boundaries. The
//      partition of [0, n) depends only on (n, chunks), never on timing.
//   3. Exceptions propagate: every chunk runs to completion, then the
//      exception of the *lowest-indexed* failing chunk is rethrown — the
//      same exception a serial left-to-right sweep would have thrown first.
//   4. Nested-free: a parallel_chunks() call made from inside a pool worker
//      executes serially inline (same chunk partition, same order), so
//      nested parallelism can never deadlock or oversubscribe.
//   5. Cancellation-aware: run_chunks captures the submitting thread's
//      cancel token, guard limits and armed faults (util/cancel.h,
//      util/guard.h, util/fault.h) and re-installs them on whichever thread
//      executes each chunk, checking the token at every chunk boundary. A
//      cancelled batch finishes fast (each remaining chunk throws at its
//      boundary instead of doing its work) and rethrows util::Cancelled via
//      the rule-3 lowest-index contract; a batch that is never cancelled is
//      byte-identical to an uncancelled run.
//
// The library default is serial (default_threads() == 1): existing callers
// see bit-identical behavior until `feio --threads N` or a programmatic
// set_default_threads() opts in.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace feio::util {

// Number of hardware execution contexts, always >= 1.
int hardware_threads();

// The one valid-values message for a --threads flag; every front end that
// rejects a value prints exactly this, so the CLI surface stays consistent.
inline constexpr const char* kThreadsFlagError =
    "--threads expects a positive integer or 'all'";

// Parses a --threads flag value shared by every feio subcommand: a positive
// decimal integer, or the literal "all" for every hardware thread (returned
// as 0, the set_default_threads() convention for "all"). Zero, negatives,
// junk, and empty values are rejected (returns false, `out` untouched).
bool parse_thread_count(std::string_view text, int& out);

// Process-wide default used when a `threads` argument is 0.
//   n >= 1  use n threads;  n <= 0  use hardware_threads().
// The initial default is 1 (serial).
void set_default_threads(int n);
int default_threads();

// Resolves a user-facing threads argument:
//   0 => default_threads(), negative => hardware_threads(), else n.
int resolve_threads(int threads);

// Scoped override of the process default thread count, used by
// feio::RunOptions: saves the current default, applies resolve-like
// semantics (0 => leave the default untouched, < 0 => all hardware
// threads, else n) and restores on destruction. The default is
// process-global; concurrent overrides should use the same value.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n);
  ~ScopedThreads();
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int saved_ = 0;
  bool active_ = false;
};

// Number of chunks a range of n items is split into at a given thread
// count: min(resolve_threads(threads), n), at least 1. Callers size their
// per-chunk result buffers with this before calling parallel_chunks().
int chunk_count(std::int64_t n, int threads);

// A fixed-size pool of worker threads executing chunked jobs. The
// submitting thread participates in its own job, so a pool of W workers
// gives W+1-way parallelism and ThreadPool(0) is a valid (serial,
// caller-only) pool.
class ThreadPool {
 public:
  using ChunkBody = std::function<void(int chunk, std::int64_t begin,
                                       std::int64_t end)>;

  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  // Splits [0, n) into exactly `chunks` contiguous ranges (chunk c covers
  // [n*c/chunks, n*(c+1)/chunks)) and runs body(c, begin, end) for every
  // chunk, blocking until all complete. Empty ranges (n == 0) return
  // without calling body. See the file comment for the exception and
  // nesting contracts.
  void run_chunks(std::int64_t n, int chunks, const ChunkBody& body);

  // Enqueues one independent task for some worker to run; returns
  // immediately. Unlike run_chunks there is no completion barrier — callers
  // track their own (feio serve's admission queue does). Requires a pool
  // with at least one worker; a task that lets an exception escape
  // terminates the process, so tasks must catch everything they can raise.
  void post(std::function<void()> task);

  // The process-wide pool used by the free functions below. Sized to
  // hardware_threads() - 1 workers (the caller supplies the final lane).
  static ThreadPool& shared();

  // True when the calling thread is one of a ThreadPool's workers.
  static bool on_worker_thread();

 private:
  void worker_loop();

  Mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ FEIO_GUARDED_BY(mu_);
  bool stop_ FEIO_GUARDED_BY(mu_) = false;
  // threads_ is written only by the constructor and read afterwards
  // (workers(), post()'s emptiness check, the destructor's join loop), so
  // it needs no lock; CI's clang thread-safety build proves the guarded
  // members above are never touched without mu_.
  std::vector<std::thread> threads_;
};

// Runs body(c, begin, end) for each of `chunks` contiguous ranges of
// [0, n) on the shared pool. `chunks` must come from chunk_count() (or be
// any value >= 1); per-chunk buffers indexed by c and merged in ascending
// c reproduce the serial order exactly.
void parallel_chunks(std::int64_t n, int chunks,
                     const ThreadPool::ChunkBody& body);

// Runs fn(i) for every i in [0, n), chunked by chunk_count(n, threads).
// fn must tolerate concurrent invocation for distinct i.
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                  int threads = 0);

}  // namespace feio::util
