// Cross-query batching over shared shard plans.
//
// The paper's Tetris engine amortizes its geometric certificate work
// across the whole output space; this layer amortizes the *harness*
// work across a whole batch of queries over the same relations. A
// sequential sweep of RunJoin pays full index-build + shard-planning
// cost per query and puts a barrier between queries — a skewed shard of
// query A leaves workers idle that query B could use. RunBatch instead:
//
//   (a) builds each relation's base indexes EXACTLY ONCE per batch and
//       shares them across every query's shards through the existing
//       zero-copy IndexView stack (index/index_view.h) — a relation
//       referenced by five queries is indexed once, not five times;
//   (b) plans dyadic-prefix shards ONCE per distinct output-space
//       signature (depth + per-atom relation/attribute binding) and
//       reuses the ShardPlan — its row buckets are the expensive part —
//       across every query that shares it;
//   (c) schedules the cross-product of queries × shards as ONE task set
//       on the work-stealing executor, so shards of different queries
//       interleave freely instead of synchronizing at per-query
//       barriers.
//
// RunBatch is the general case of the one shard pipeline
// (RunShardPipeline, engine/parallel_executor.h): it validates the
// batch-level knobs and resolves the shared depth, and the pipeline does
// the rest. A RunJoin is a batch of one; so is a PatchJoin, with
// a shard filter.
//
// Results are per-query EngineResults, tuple-identical to what a
// sequential per-query RunJoin would produce (tests/batch_runner_test.cc
// asserts this across all 11 engines), plus batch-level amortization
// stats.
#ifndef TETRIS_ENGINE_BATCH_RUNNER_H_
#define TETRIS_ENGINE_BATCH_RUNNER_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "engine/join_engine.h"
#include "query/join_query.h"
#include "relation/relation.h"

namespace tetris {

class WorkStealingPool;  // engine/parallel_executor.h
class IndexCache;        // engine/index_cache.h

/// The output-space signature of `query` at `depth`: the grid depth,
/// the attribute count, and per atom a caller-supplied relation stamp
/// plus the attribute binding — everything shard planning (and result
/// caching) depends on. Queries with equal signatures restrict the same
/// rows to the same subcubes. RunBatch stamps atoms by Relation address
/// (plan sharing within one call); the server's ResultCache
/// (src/server/result_cache.h) stamps by name@epoch so keys survive
/// across calls and go stale the moment a relation mutates.
std::string OutputSpaceSignature(
    const JoinQuery& query, int depth,
    const std::function<std::string(const Relation&)>& stamp);

/// Per-batch knobs, all optional.
struct BatchOptions {
  /// Dyadic depth of the shared value domain; 0 = the max MinDepth()
  /// over the batch (every query must fit one grid so indexes can be
  /// shared). An explicit depth smaller than some query's MinDepth()
  /// fails the batch.
  int depth = 0;

  /// Per-plan shard count, with EngineOptions::shards semantics:
  /// kAutoShards (the default) = planner's choice — at least one task
  /// per worker across the whole batch; 0 or 1 = one shard per plan
  /// (query-level parallelism only); >= 2 = that many shards per plan
  /// (rounded up to a power of two).
  int shards = kAutoShards;

  /// Worker-parallelism cap for the whole batch task set: 0 (default) =
  /// the executor's full width, N = at most N workers, 1 = sequential
  /// (deterministic debugging). Always clamped to the executor's width.
  int threads = 0;

  /// When nonzero, every plan splits until its shards' estimated peaks
  /// — their restricted input payloads — fit (engine/shard_planner.h).
  size_t memory_budget_bytes = 0;

  /// Executor the batch draws its workers from. nullptr = the
  /// process-global pool. Must outlive the call.
  WorkStealingPool* executor = nullptr;

  /// Per-query attribute-order hints with EngineOptions::order
  /// semantics (SAO for the Tetris family, GAO for Leapfrog / Generic
  /// Join). Empty = no hints; otherwise exactly one entry per query
  /// (individual entries may be empty). A bad hint — not a permutation,
  /// or any hint on a Balance-lifted variant, which chooses its own
  /// SAO — fails that query (per-query error, like RunJoin), not the
  /// batch. Order hints change the index *layout* an atom wants; the
  /// (relation, layout) index cache below keeps that from forcing
  /// per-query rebuilds.
  std::vector<std::vector<int>> orders;

  /// Shared index cache keyed by (relation, layout)
  /// (engine/index_cache.h). nullptr = a batch-local cache — indexes
  /// are still built once per distinct (relation, layout) *within* the
  /// batch. Passing a long-lived cache (the server's RelationRegistry
  /// owns one) amortizes builds *across* RunBatch calls; such a caller
  /// must keep every relation alive per the IndexCache lifetime
  /// contract. Only the Tetris family builds base indexes.
  IndexCache* index_cache = nullptr;

  /// Cooperative deadline (steady clock); the default-constructed
  /// time_point = none. (query, shard) tasks not yet *started* when the
  /// deadline passes are abandoned, and their queries fail with a
  /// per-query "deadline exceeded" error — tasks already running
  /// complete (the check happens at task granularity, which is what
  /// keeps it cheap). The server's JoinService maps per-request
  /// deadlines onto this.
  std::chrono::steady_clock::time_point deadline{};
};

/// Batch-level amortization counters.
struct BatchStats {
  size_t queries = 0;    ///< batch size
  size_t relations = 0;  ///< distinct relations referenced by the batch
  /// Base indexes built this batch (one per distinct (relation, layout)
  /// the Tetris family touches; 0 for engines that scan relations
  /// directly — and 0 on a fully warm shared cache, where
  /// index_cache_hits carries the reuse instead).
  size_t indexes_built = 0;
  /// (query, atom) index requests served from the cache without a
  /// build — within the batch, or across calls when the caller passed a
  /// long-lived BatchOptions::index_cache.
  size_t index_cache_hits = 0;
  /// Resident bytes of the shared base indexes — paid once per batch,
  /// not once per query.
  size_t index_bytes = 0;
  size_t plans = 0;       ///< distinct output-space signatures planned
  size_t plan_bytes = 0;  ///< summed residency of the shared plans
  /// Non-empty (query, shard) tasks handed to the executor.
  size_t tasks = 0;
  size_t threads = 0;  ///< workers the batch may occupy
  double wall_ms = 0.0;  ///< end-to-end batch wall time
  /// Summed wall time of the individual (query, shard) tasks — the
  /// batch's total task occupancy, which *can* exceed wall_ms when
  /// tasks run concurrently. cpu_ms / wall_ms reads as the batch's
  /// average parallelism.
  double cpu_ms = 0.0;
  /// Sum over queries of the attributed per-query times (see the
  /// EngineResult note in BatchResult). Attribution splits the
  /// execution wall time by each query's share of cpu_ms, so
  /// sum_query_ms <= wall_ms always holds (equality up to the
  /// non-execution overhead — planning, merging — when every query
  /// ran).
  double sum_query_ms = 0.0;
};

/// Result of one batch run.
struct BatchResult {
  /// False only on batch-level structural errors (a query referencing a
  /// relation outside the declared pool, a depth too small for the
  /// batch). Per-query failures — an engine that cannot evaluate one
  /// query — land in that query's EngineResult instead, and the rest of
  /// the batch still runs.
  bool ok = false;
  std::string error;  ///< reason when !ok
  /// One EngineResult per query, in input order, tuple-identical to a
  /// per-query RunJoin. Each result's `wall_ms` is the query's
  /// *attributed* time — the batch's execution wall split by the
  /// query's share of summed task time — not a wall-clock latency
  /// (queries overlap inside the batch; the batch wall time lives in
  /// `stats.wall_ms`, the raw task occupancy in `stats.cpu_ms`).
  /// Invariants: every attributed time <= stats.wall_ms, and their sum
  /// (stats.sum_query_ms) <= stats.wall_ms.
  std::vector<EngineResult> results;
  BatchStats stats;
  /// Batch-level diagnostics: plan and index sharing, deadline failures.
  std::string note;
};

/// Evaluates every query of the batch with `kind` over the shared
/// `relations` pool. `relations` declares the batch's relation universe
/// — every atom of every query must reference one of them (that is what
/// makes the sharing sound); pass the pool the queries were built over.
/// An empty pool infers the universe from the queries themselves.
/// Never throws; see BatchResult::ok for the failure contract.
BatchResult RunBatch(const std::vector<const Relation*>& relations,
                     const std::vector<JoinQuery>& queries, EngineKind kind,
                     const BatchOptions& options = {});

}  // namespace tetris

#endif  // TETRIS_ENGINE_BATCH_RUNNER_H_
