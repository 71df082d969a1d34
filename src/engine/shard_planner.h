// Dyadic-prefix shard planning: splits a join query's output space
// [2^d]^n into 2^k disjoint subcubes and restricts every atom to its
// subcube.
//
// The paper's box decomposition gives the sharding key for free: the
// root-level Split-First-Thick-Dimension step of Tetris partitions the
// output space into dyadic sibling halves, and any output tuple lies in
// exactly one of them. Repeating the split k times (round-robin over the
// thickest dimensions) yields 2^k congruent subcubes; restricting each
// atom's relation to the subcube's projection onto the atom's attributes
// preserves the join exactly:
//
//     Q(D) = ⊎_shards  Q(D restricted to the shard's box),
//
// because every query attribute occurs in at least one atom, so a tuple
// of the restricted join is confined to the subcube in every dimension.
// Shards are therefore independent — the parallel executor
// (engine/parallel_executor.h) runs them concurrently on any engine.
//
// The plan is *lazy*: it never copies tuples. Each atom's rows are
// bucketed once by their shard-id bits (8 bytes per row, independent of
// the shard count), and a Shard is just a subcube plus bookkeeping. A
// single-shard plan buckets nothing: its shard is the whole input.
// Consumers either restrict probes to the subcube directly
// (index/index_view.h — the zero-copy path the Tetris family uses) or
// call MaterializeShard inside the worker task and drop the copy when
// the shard finishes (the baselines' lazy path).
//
// The planner is memory-aware: given a budget, it increases k until the
// estimated resident footprint of every shard fits, and reports, rather
// than hangs or lies, when no split can satisfy the budget. The estimate
// is deterministic: a shard's restricted input payload (EstimateAtomBytes
// summed over its atoms). It cannot see engine-internal growth such as
// the Tetris knowledge base, so every budgeted run prints it next to the
// measured per-shard peak (RunStats::estimated_max_shard_peak_bytes vs
// max_shard_peak_bytes, and the "estimator(...)" shard note).
#ifndef TETRIS_ENGINE_SHARD_PLANNER_H_
#define TETRIS_ENGINE_SHARD_PLANNER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "geometry/dyadic_box.h"
#include "query/join_query.h"
#include "relation/relation.h"

namespace tetris {

/// Planner knobs.
struct ShardPlanOptions {
  /// Requested shard count: >= 2 asks for that many (rounded up to the
  /// next power of two), 0 or 1 plans a single shard, -1 lets the
  /// planner choose (from `threads_hint` and the memory budget).
  int shards = 0;

  /// Auto mode plans at least one shard per thread.
  int threads_hint = 1;

  /// When nonzero, the planner keeps splitting until the estimated peak
  /// resident bytes of every shard fit the budget (or the split cap is
  /// reached, in which case `ShardPlan::budget_ok` is false and
  /// `ShardPlan::note` says why).
  size_t memory_budget_bytes = 0;

  /// Dyadic depth of the value domain; 0 = query.MinDepth().
  int depth = 0;

  /// Cap on budget/auto-driven *growth* of k (the number of prefix bits
  /// split). Explicitly requested shard counts are honored beyond it, up
  /// to the domain itself (num_attrs * depth prefix bits) and a hard
  /// 2^20-shard ceiling.
  int max_split_bits = 8;
};

/// One independent unit of work: a subcube of the output space plus
/// per-shard bookkeeping. Owns no tuples — the rows restricted to this
/// shard live in ShardPlan's shared buckets (`ShardPlan::AtomRows`).
struct Shard {
  int id = 0;
  DyadicBox box;  ///< the subcube, over query attribute dimensions
  /// Restricted input payload: what a materialized copy would occupy.
  size_t payload_bytes = 0;
  /// The planner's peak estimate for this shard: its payload.
  size_t estimated_peak_bytes = 0;
  bool empty = false;  ///< some atom restricted to ∅ — output is empty
};

/// The planner's output. Resident footprint is one row index per
/// (atom, tuple) — independent of the shard count (`PlanningBytes`).
struct ShardPlan {
  /// Shard-membership buckets of one atom's rows: tuples keyed by the
  /// shard-id bits this atom pins. Shard `id` owns bucket `id & id_mask`;
  /// atoms not split on a bit share buckets across the shards that only
  /// differ there.
  struct AtomBuckets {
    int id_mask = 0;
    std::unordered_map<int, std::vector<size_t>> rows;
  };

  std::vector<Shard> shards;  ///< 2^split_bits entries, ordered by id
  int split_bits = 0;         ///< k
  std::vector<int> split_dims;  ///< dimension split at each level
  int depth = 0;
  size_t max_estimated_peak_bytes = 0;
  /// False iff a memory budget was given and even the finest allowed
  /// split leaves some shard's estimate over it.
  bool budget_ok = true;
  /// Human-readable planner diagnostics: budget misses, clamped shard
  /// counts. Empty when the plan is exactly what was asked for.
  std::string note;
  /// Per-atom row buckets, shared across shards. Empty for a
  /// single-shard plan, whose one shard holds every row.
  std::vector<AtomBuckets> buckets;

  /// Rows of atom `atom` restricted to shard `shard_id`, as indices into
  /// the base relation; nullptr when the restriction is empty or the
  /// plan keeps no buckets (a single-shard plan: every row).
  const std::vector<size_t>* AtomRows(int shard_id, size_t atom) const;

  /// Bytes the plan keeps resident: the row buckets (the shards
  /// themselves are a few words each).
  size_t PlanningBytes() const;
};

/// Plans the shard decomposition. Never fails: infeasible requests
/// degrade to the closest feasible plan with `note`/`budget_ok` set.
ShardPlan PlanShards(const JoinQuery& query, const ShardPlanOptions& options);

/// An owning restricted copy of one shard's query — the lazy
/// materialization path: built inside the worker task, dropped when the
/// shard finishes. `query` is rebuilt over `storage` with the same
/// attribute ids as the original.
struct MaterializedShard {
  std::vector<std::unique_ptr<Relation>> storage;
  JoinQuery query;
};

/// Materializes shard `shard_id` of `plan` against the original `query`.
MaterializedShard MaterializeShard(const JoinQuery& query,
                                   const ShardPlan& plan, int shard_id);

/// The planner's per-atom resident-footprint estimate: the payload of
/// `tuples` arity-`arity` tuples, mirroring SortedIndex::MemoryBytes.
/// A shard's payload is the SUM of this over its atoms (all per-atom
/// structures are resident at once during a run).
size_t EstimateAtomBytes(size_t tuples, int arity);

}  // namespace tetris

#endif  // TETRIS_ENGINE_SHARD_PLANNER_H_
