#include "engine/join_engine.h"

#include <chrono>
#include <optional>

#include "baseline/generic_join.h"
#include "baseline/leapfrog.h"
#include "baseline/pairwise_join.h"
#include "baseline/yannakakis.h"
#include "engine/parallel_executor.h"
#include "index/sorted_index.h"

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

// RunJoin's sharded path: a batch of one through the shard pipeline
// (engine/parallel_executor.h), behind RunJoin's index and depth checks.
EngineResult RunShardedJoin(const JoinQuery& query, EngineKind kind,
                            const EngineOptions& options) {
  EngineResult result;
  result.stats.engine = kind;
  const int depth = GridDepth(query, options);
  if (!options.indexes.empty() && !TetrisAlgorithmOf(kind).has_value()) {
    result.error =
        "indexes: only the Tetris family combines custom indexes with "
        "sharded execution (views restrict probes to the shard box; the "
        "baselines rescan materialized shard copies)";
    return result;
  }
  result.error = CustomIndexError(query, options.indexes, depth);
  if (result.error.empty() && depth < query.MinDepth()) {
    result.error = "depth: too small for the data "
                   "(need at least query.MinDepth())";
  }
  if (!result.error.empty()) return result;
  ShardQuery shard_query;
  shard_query.query = &query;
  shard_query.indexes = options.indexes;
  return std::move(
      RunShardPipeline({shard_query}, kind, OneQueryBatch(options, depth))
          .results[0]);
}

// Derives the GAO Leapfrog / Generic Join should run under from the
// column orders of per-atom SortedIndexes: each index's trie order
// constrains its atom's attributes to appear in that relative order, and
// the GAO is any topological order of the union of those constraints
// (smallest attribute id first on ties, so the result is deterministic).
bool DeriveGaoFromIndexes(const JoinQuery& query,
                          const std::vector<const Index*>& indexes,
                          std::vector<int>* gao, std::string* error) {
  const int n = query.num_attrs();
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indeg(n, 0);
  for (size_t i = 0; i < indexes.size(); ++i) {
    const auto* si = dynamic_cast<const SortedIndex*>(indexes[i]);
    if (si == nullptr) {
      *error = "indexes: leapfrog / generic-join derive their trie order "
               "from SortedIndexes only";
      return false;
    }
    const Atom& atom = query.atoms()[i];
    if (si->arity() != static_cast<int>(atom.var_ids.size())) {
      *error = "indexes: index arity disagrees with its atom";
      return false;
    }
    const std::vector<int>& order = si->order();
    for (size_t l = 0; l + 1 < order.size(); ++l) {
      const int u = atom.var_ids[order[l]];
      const int v = atom.var_ids[order[l + 1]];
      if (u == v) continue;  // atom repeats an attribute
      succ[u].push_back(v);
      ++indeg[v];
    }
  }
  gao->clear();
  std::vector<bool> placed(n, false);
  for (int step = 0; step < n; ++step) {
    int pick = -1;
    for (int v = 0; v < n; ++v) {
      if (!placed[v] && indeg[v] == 0) {
        pick = v;
        break;
      }
    }
    if (pick < 0) {
      *error = "indexes: the SortedIndex column orders conflict "
               "(no attribute order is consistent with every trie)";
      return false;
    }
    placed[pick] = true;
    gao->push_back(pick);
    for (int w : succ[pick]) --indeg[w];
  }
  return true;
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

EngineResult RunJoin(const JoinQuery& query, EngineKind kind,
                     const EngineOptions& options) {
  EngineResult result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();

  const std::optional<JoinAlgorithm> tetris_algo = TetrisAlgorithmOf(kind);
  result.error = OrderHintError(kind, options.order, query.num_attrs());
  if (!result.error.empty()) return result;
  if (!options.indexes.empty() &&
      options.indexes.size() != query.atoms().size()) {
    result.error = "indexes: need exactly one index per query atom";
    return result;
  }
  if (options.shards < kAutoShards) {
    result.error = "shards: want -1 (auto), 0/1 (off), or >= 2";
    return result;
  }
  if (options.threads < 0) {
    result.error = "threads: want 0 (hardware concurrency) or >= 1";
    return result;
  }

  // Sharded execution: a batch of one through the shard pipeline, whose
  // baseline shards re-enter RunJoin with plain sequential options. A
  // thread count other than 1 implies sharding (shards are the unit of
  // parallelism).
  const bool wants_sharding =
      options.shards == kAutoShards || options.shards > 1 ||
      options.memory_budget_bytes > 0 || options.threads != 1;
  if (wants_sharding) {
    EngineOptions sharded = options;
    if (sharded.shards == 0 || sharded.shards == 1) {
      sharded.shards = kAutoShards;
    }
    result = RunShardedJoin(query, kind, sharded);
    result.stats.wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return result;
  }

  if (tetris_algo.has_value()) {
    // A grid shallower than the data cannot represent it: indexes built
    // at that depth misbehave silently, so reject up front (the custom-
    // index path re-checks below because it may adopt the indexes'
    // depth instead).
    if (options.depth > 0 && options.depth < query.MinDepth()) {
      result.error = "depth: too small for the data "
                     "(need at least query.MinDepth())";
      return result;
    }
    const int depth = GridDepth(query, options);
    JoinRunResult run;
    if (!options.indexes.empty()) {
      // With no explicit depth the run adopts the indexes' (still
      // checking they agree among themselves and cover the data).
      result.error = CustomIndexError(query, options.indexes, depth);
      if (!result.error.empty()) return result;
      if (depth < query.MinDepth()) {
        result.error = "indexes: depth too small for the data "
                       "(need at least query.MinDepth())";
        return result;
      }
      run = RunTetrisJoin(query, options.indexes, depth, *tetris_algo,
                          options.order);
    } else if (options.order.empty() && options.depth == 0) {
      run = RunTetrisJoinDefaultIndexes(query, *tetris_algo);
    } else if (options.order.empty()) {
      // Depth override, default index layout (relation column order) and
      // variant-appropriate default SAO.
      std::vector<std::unique_ptr<Index>> owned;
      std::vector<const Index*> ptrs;
      for (const Atom& a : query.atoms()) {
        owned.push_back(std::make_unique<SortedIndex>(*a.rel, depth));
        ptrs.push_back(owned.back().get());
      }
      run = RunTetrisJoin(query, ptrs, depth, *tetris_algo);
    } else {
      auto owned = MakeSaoConsistentIndexes(query, options.order, depth);
      run = RunTetrisJoin(query, IndexPtrs(owned), depth, *tetris_algo,
                          options.order);
    }
    // One packed-key sort of the flat output, then the facade tuples
    // are built once, already in canonical order.
    run.output.Canonicalize();
    result.tuples = run.output.ToTuples();
    result.stats.tetris = run.stats;
    result.stats.input_gap_boxes = run.input_gap_boxes;
    result.stats.oracle_probes = run.oracle_probes;
    result.stats.memory.kb_bytes =
        static_cast<size_t>(run.stats.kb_peak_bytes);
    result.stats.memory.index_bytes = run.index_bytes;
    result.ok = true;
  } else {
    // An explicit order hint wins; otherwise SortedIndexes supply the
    // trie order, so index ablations reach the WCOJ baselines too.
    std::vector<int> gao = options.order;
    if (gao.empty() && !options.indexes.empty() &&
        (kind == EngineKind::kLeapfrog ||
         kind == EngineKind::kGenericJoin)) {
      if (!DeriveGaoFromIndexes(query, options.indexes, &gao,
                                &result.error)) {
        return result;
      }
    }
    switch (kind) {
      case EngineKind::kLeapfrog:
        result.tuples =
            LeapfrogTriejoin(query, gao, &result.stats.seeks);
        result.ok = true;
        break;
      case EngineKind::kGenericJoin:
        result.tuples =
            GenericJoin(query, gao, &result.stats.probes);
        result.ok = true;
        break;
      case EngineKind::kYannakakis: {
        auto out = YannakakisJoin(query, &result.stats.baseline);
        if (out.has_value()) {
          result.tuples = std::move(*out);
          result.ok = true;
        } else {
          result.error = "yannakakis: query is not alpha-acyclic";
        }
        break;
      }
      case EngineKind::kPairwiseHash:
        result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kHash,
                                         &result.stats.baseline);
        result.ok = true;
        break;
      case EngineKind::kPairwiseSortMerge:
        result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kSortMerge,
                                         &result.stats.baseline);
        result.ok = true;
        break;
      case EngineKind::kPairwiseNestedLoop:
        result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kNestedLoop,
                                         &result.stats.baseline);
        result.ok = true;
        break;
      default:
        result.error = "unknown engine kind";
        break;
    }
    if (result.ok) CanonicalizeTuples(&result.tuples);
  }

  if (result.ok) {
    result.stats.output_tuples = result.tuples.size();
    result.stats.memory.intermediate_bytes =
        result.stats.baseline.max_intermediate_bytes;
    result.stats.memory.output_bytes =
        result.tuples.size() *
        (sizeof(Tuple) +
         static_cast<size_t>(query.num_attrs()) * sizeof(uint64_t));
  }
  const auto end = std::chrono::steady_clock::now();
  result.stats.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

}  // namespace tetris
