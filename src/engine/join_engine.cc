#include "engine/join_engine.h"

#include <chrono>
#include <optional>

#include "engine/parallel_executor.h"

namespace tetris {

// Maps the Tetris-family kinds to their join_runner algorithm; nullopt
// for non-Tetris engines. Exhaustive switch: a new EngineKind fails the
// -Werror build until it is routed here.
std::optional<JoinAlgorithm> TetrisAlgorithmOf(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTetrisPreloaded:
      return JoinAlgorithm::kTetrisPreloaded;
    case EngineKind::kTetrisReloaded:
      return JoinAlgorithm::kTetrisReloaded;
    case EngineKind::kTetrisPreloadedNoCache:
      return JoinAlgorithm::kTetrisPreloadedNoCache;
    case EngineKind::kTetrisPreloadedLB:
      return JoinAlgorithm::kTetrisPreloadedLB;
    case EngineKind::kTetrisReloadedLB:
      return JoinAlgorithm::kTetrisReloadedLB;
    case EngineKind::kLeapfrog:
    case EngineKind::kGenericJoin:
    case EngineKind::kYannakakis:
    case EngineKind::kPairwiseHash:
    case EngineKind::kPairwiseSortMerge:
    case EngineKind::kPairwiseNestedLoop:
      return std::nullopt;
  }
  return std::nullopt;
}

namespace {

// The grid depth a run uses: the explicit depth, else the caller-built
// indexes' depth, else the data's minimum.
int GridDepth(const JoinQuery& query, const EngineOptions& options) {
  if (options.depth > 0) return options.depth;
  return options.indexes.empty() ? query.MinDepth()
                                 : options.indexes[0]->depth();
}

// The engine's grid depth and every caller-built index's depth must
// agree, or probes return gap boxes the space cannot split down to and
// the run never terminates; each index must also match its atom.
std::string CustomIndexError(const JoinQuery& query,
                             const std::vector<const Index*>& indexes,
                             int depth) {
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (indexes[i]->depth() != depth) {
      return "indexes: index depth disagrees with the engine depth "
             "(build them at the same depth, or set EngineOptions::depth "
             "to match)";
    }
    if (indexes[i]->arity() !=
        static_cast<int>(query.atoms()[i].var_ids.size())) {
      return "indexes: index arity disagrees with its atom";
    }
  }
  return "";
}

// RunJoin's option checks, in order, for plain and sharded runs alike.
std::string OptionsError(const JoinQuery& query, EngineKind kind,
                         const EngineOptions& options, bool sharded,
                         int depth) {
  std::string error =
      OrderHintError(kind, options.order, query.num_attrs());
  if (!error.empty()) return error;
  if (!options.indexes.empty() &&
      options.indexes.size() != query.atoms().size()) {
    return "indexes: need exactly one index per query atom";
  }
  if (options.shards < kAutoShards) {
    return "shards: want -1 (auto), 0/1 (off), or >= 2";
  }
  if (options.threads < 0) {
    return "threads: want 0 (hardware concurrency) or >= 1";
  }
  if (sharded && !options.indexes.empty() &&
      !TetrisAlgorithmOf(kind).has_value()) {
    return "indexes: only the Tetris family combines custom indexes with "
           "sharded execution (views restrict probes to the shard box; the "
           "baselines rescan materialized shard copies)";
  }
  error = CustomIndexError(query, options.indexes, depth);
  if (!error.empty()) return error;
  // A caller-chosen grid shallower than the data cannot represent it:
  // indexes built at that depth misbehave silently.
  if ((options.depth > 0 || !options.indexes.empty()) &&
      depth < query.MinDepth()) {
    return "depth: too small for the data (need at least query.MinDepth())";
  }
  return "";
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTetrisPreloaded:
      return "tetris-preloaded";
    case EngineKind::kTetrisReloaded:
      return "tetris-reloaded";
    case EngineKind::kTetrisPreloadedNoCache:
      return "tetris-preloaded-nocache";
    case EngineKind::kTetrisPreloadedLB:
      return "tetris-preloaded-lb";
    case EngineKind::kTetrisReloadedLB:
      return "tetris-reloaded-lb";
    case EngineKind::kLeapfrog:
      return "leapfrog";
    case EngineKind::kGenericJoin:
      return "generic-join";
    case EngineKind::kYannakakis:
      return "yannakakis";
    case EngineKind::kPairwiseHash:
      return "pairwise-hash";
    case EngineKind::kPairwiseSortMerge:
      return "pairwise-sortmerge";
    case EngineKind::kPairwiseNestedLoop:
      return "pairwise-nestedloop";
  }
  return "unknown";
}

const std::vector<EngineKind>& AllEngineKinds() {
  static const std::vector<EngineKind> kAll = {
      EngineKind::kTetrisPreloaded,
      EngineKind::kTetrisReloaded,
      EngineKind::kTetrisPreloadedNoCache,
      EngineKind::kTetrisPreloadedLB,
      EngineKind::kTetrisReloadedLB,
      EngineKind::kLeapfrog,
      EngineKind::kGenericJoin,
      EngineKind::kYannakakis,
      EngineKind::kPairwiseHash,
      EngineKind::kPairwiseSortMerge,
      EngineKind::kPairwiseNestedLoop,
  };
  return kAll;
}

bool EngineSupports(EngineKind kind, const JoinQuery& query) {
  if (kind != EngineKind::kYannakakis) return true;
  return query.ToHypergraph().IsAlphaAcyclic();
}

std::string OrderHintError(EngineKind kind, const std::vector<int>& order,
                           int num_attrs) {
  if (order.empty()) return "";
  std::vector<bool> seen(static_cast<size_t>(num_attrs), false);
  bool permutation = order.size() == seen.size();
  for (int v : order) {
    if (v < 0 || v >= num_attrs || seen[v]) {
      permutation = false;
      break;
    }
    seen[v] = true;
  }
  if (!permutation) {
    return "order: not a permutation of the query attribute ids";
  }
  // The Balance-lifted variants choose their own SAO (join_runner
  // asserts sao.empty()), so an explicit hint is rejected up front.
  if (kind == EngineKind::kTetrisPreloadedLB ||
      kind == EngineKind::kTetrisReloadedLB) {
    return "order: Balance-lifted variants choose their own SAO";
  }
  return "";
}

std::string EngineSupportError(EngineKind kind, const JoinQuery& query) {
  if (EngineSupports(kind, query)) return "";
  // Only Yannakakis is partial: it needs an alpha-acyclic query.
  return std::string(EngineKindName(kind)) + ": query is not alpha-acyclic";
}

EngineResult RunJoin(const JoinQuery& query, EngineKind kind,
                     const EngineOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  EngineResult result;
  result.stats.engine = kind;
  // A thread count other than 1 implies sharding (shards are the unit of
  // parallelism).
  const bool sharded = options.shards == kAutoShards || options.shards > 1 ||
                       options.memory_budget_bytes > 0 ||
                       options.threads != 1;
  const int depth = GridDepth(query, options);
  result.error = OptionsError(query, kind, options, sharded, depth);
  if (!result.error.empty()) return result;

  BatchOptions batch = OneQueryBatch(options, depth);
  if (sharded && batch.shards <= 1) batch.shards = kAutoShards;
  ShardQuery one;
  one.query = &query;
  one.indexes = options.indexes;
  result = std::move(RunShardPipeline({one}, kind, batch).results[0]);
  if (!sharded) {
    // A plain run is the single-shard plan run inline; it reports none
    // of the sharded-run fields.
    result.stats.shards = 0;
    result.stats.threads = 0;
    result.stats.max_shard_peak_bytes = 0;
    result.stats.estimated_max_shard_peak_bytes = 0;
    result.stats.plan_bytes = 0;
    result.shard_runs.clear();
    result.shard_note.clear();
  }
  result.stats.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return result;
}

}  // namespace tetris
