// Parallel execution of independent join work: a work-stealing thread
// pool with nested task groups, plus the one shard pipeline behind
// RunJoin, RunBatch and PatchJoin.
//
// The pool of record is the *process-global executor* (Global()): created
// on first use, sized once to the hardware, threads alive until process
// exit — repeated sharded runs reuse the same workers instead of
// churning threads. Every facade-level consumer draws from that one
// thread budget: the shard pipeline fans its (query, shard) tasks out on
// it, and cli::RunEngines --parallel fans its engines out on it, and
// because Run is *reentrant* — a task that calls Run on its own pool
// helps execute queued tasks until its group completes instead of
// blocking a worker — nested parallelism (a parallel engine sweep whose
// engines shard internally) is bounded by the pool width and cannot
// oversubscribe the machine. Callers that really want a separate budget
// pass their own pool through EngineOptions::executor.
//
// The shard pipeline (RunShardPipeline) is the paper's root
// Split-First-Thick-Dimension step run as a harness: plan a
// dyadic-prefix decomposition per distinct output space
// (engine/shard_planner.h), turn the non-empty shards (optionally only
// those a filter selects) of every query into ONE task set, execute it
// on the pool (optionally under a deadline), and merge every query's
// outputs and RunStats deterministically by shard id — bit-identical to
// the sequential unsharded run. The Tetris family reads base indexes
// through zero-copy IndexViews restricted to the shard box
// (index/index_view.h); the baselines materialize their shard lazily
// inside the worker task and drop it when the shard finishes, except
// that a single-shard plan covers the whole output space and scans the
// caller's relations. The pipeline is the only place engines are
// dispatched; its three callers are thin:
//
//   * RunJoin is a batch of one — a plain run is a single-shard plan
//     run inline on the calling thread;
//   * RunBatch (engine/batch_runner.h) is the general case;
//   * PatchJoin (engine/incremental.h) is a batch of one whose filter
//     keeps the shards a delta touches, followed by its splice.
//
// Thread-safety contract: every engine run constructs its own evaluator
// state (oracles, knowledge bases, scratch) from const inputs —
// relations, indexes and queries are only read. The evaluator layer keeps
// that contract re-entrant: probe counters are atomic
// (kb/box_oracle.h) and oracle adapters carry no shared mutable scratch;
// IndexViews share one base index across shards through the same
// const-probe contract.
#ifndef TETRIS_ENGINE_PARALLEL_EXECUTOR_H_
#define TETRIS_ENGINE_PARALLEL_EXECUTOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/join_engine.h"
#include "engine/shard_planner.h"

namespace tetris {

/// A fixed-size pool of workers with per-worker task deques. Workers pop
/// their own deque from the back and steal from other deques' front when
/// idle — coarse-grained stealing under one lock, which is plenty for
/// shard-sized tasks (milliseconds each).
class WorkStealingPool {
 public:
  /// Spawns `threads` workers (clamped to [1, 256]).
  explicit WorkStealingPool(int threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Runs every task and blocks until all complete. Tasks must not
  /// throw. Reentrant: concurrent Runs from several threads interleave
  /// on the same workers, and a Run issued from inside a pool task
  /// *helps* — the calling worker executes queued tasks until its own
  /// group completes — so nested parallelism never deadlocks and never
  /// grows the thread count.
  void Run(std::vector<std::function<void()>> tasks);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static int HardwareThreads();

  /// The process-global executor: lazily created, sized to
  /// HardwareThreads(), threads persist until process exit. All facade
  /// parallelism (sharded runs, batched runs, --parallel sweeps)
  /// defaults to it, so nested uses share one thread budget.
  static WorkStealingPool& Global();

 private:
  /// One blocking Run call: the tasks it enqueued that have not finished.
  struct Group {
    size_t pending = 0;
  };
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  void WorkerLoop(int self);
  // Pops own back, else steals another deque's front. Caller holds mu_.
  Task NextTask(int self);

  std::mutex mu_;
  std::condition_variable cv_;  // new work, group completion, stop
  std::vector<std::deque<Task>> queues_;
  size_t unassigned_ = 0;  // tasks sitting in deques
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0..n-1) on `pool` (nullptr = the global executor), occupying
/// at most max_parallel of its workers (<= 0 = the pool's full width;
/// always clamped to the pool width — the shared thread budget). Blocks
/// until all complete; n <= 1 or an effective width of 1 runs inline on
/// the calling thread (max_parallel == 1 never touches the pool). Results
/// belong in caller-owned slots indexed by i, which keeps the outcome
/// deterministic regardless of scheduling.
void ParallelFor(WorkStealingPool* pool, int max_parallel, int n,
                 const std::function<void(int)>& fn);

/// Appends `s` to `*note` with "; " separation; no-op when `s` is empty.
void AppendNote(std::string* note, const std::string& s);

/// One query of a shard-pipeline run.
struct ShardQuery {
  const JoinQuery* query = nullptr;
  /// Caller-built per-atom base indexes (EngineOptions::indexes): the
  /// Tetris family probes them (empty = take them from the index cache);
  /// without an order hint, Leapfrog and Generic Join derive their trie
  /// order from them. The other baselines ignore them.
  std::vector<const Index*> indexes;
  /// Shard filter: when set, only the plan shards whose box it accepts
  /// run and reach the merged result (and its shard_runs). Called once
  /// per plan shard, in id order, on the calling thread.
  std::function<bool(const DyadicBox&)> filter;
};

/// The one-query batch options of a RunJoin-style call at grid `depth`:
/// EngineOptions' shards, threads, memory budget, executor and order
/// hint. (EngineOptions::shards passes through as is, so 0/1 plan one
/// shard.)
BatchOptions OneQueryBatch(const EngineOptions& options, int depth);

/// The shard pipeline: plan -> tasks -> execute -> merge, for every
/// query of the batch with `kind`. `options` carries RunBatch's knobs,
/// already validated, with `depth` resolved to a grid every query fits.
/// Per-query failures — an engine that cannot run the query, a bad
/// order hint, conflicting index trie orders, a failed shard, tasks
/// abandoned at the deadline — land in that query's result; the batch
/// itself always succeeds. Results
/// carry RunBatch's contract (attributed wall_ms, planner / budget /
/// estimator notes in shard_note); stats.relations and stats.wall_ms
/// are left to the caller.
BatchResult RunShardPipeline(const std::vector<ShardQuery>& queries,
                             EngineKind kind, const BatchOptions& options);

}  // namespace tetris

#endif  // TETRIS_ENGINE_PARALLEL_EXECUTOR_H_
