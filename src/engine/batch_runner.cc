#include "engine/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "engine/parallel_executor.h"

namespace tetris {

std::string OutputSpaceSignature(
    const JoinQuery& query, int depth,
    const std::function<std::string(const Relation&)>& stamp) {
  std::string sig = std::to_string(depth) + "|" +
                    std::to_string(query.num_attrs());
  for (const Atom& atom : query.atoms()) {
    sig += "|" + stamp(*atom.rel) + ":";
    for (int v : atom.var_ids) sig += std::to_string(v) + ",";
  }
  return sig;
}

BatchResult RunBatch(const std::vector<const Relation*>& relations,
                     const std::vector<JoinQuery>& queries, EngineKind kind,
                     const BatchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  auto fail = [&](std::string error) {
    BatchResult batch;
    batch.error = std::move(error);
    batch.results.resize(queries.size());
    for (EngineResult& r : batch.results) r.stats.engine = kind;
    batch.stats.queries = queries.size();
    batch.stats.wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return batch;
  };
  if (options.shards < kAutoShards) {
    return fail("shards: want -1 (auto), 0/1 (off), or >= 2");
  }
  if (options.threads < 0) {
    return fail("threads: want 0 (the executor's full width) or >= 1");
  }
  if (!options.orders.empty() && options.orders.size() != queries.size()) {
    return fail("orders: want one entry per query (or none)");
  }

  // The relation universe: every atom must reference a declared pool
  // relation (that identity is what makes index/plan sharing sound). An
  // empty pool infers the universe from the queries themselves.
  const std::unordered_set<const Relation*> pool(relations.begin(),
                                                 relations.end());
  std::unordered_set<const Relation*> distinct;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const Atom& atom : queries[q].atoms()) {
      if (!relations.empty() && pool.count(atom.rel) == 0) {
        return fail("query " + std::to_string(q) + ": atom relation '" +
                    atom.rel->name() +
                    "' is not in the batch's relation pool");
      }
      distinct.insert(atom.rel);
    }
  }

  // One grid depth for the whole batch, so one index per relation can
  // serve every query.
  BatchOptions resolved = options;
  for (const JoinQuery& q : queries) {
    if (options.depth > 0 && q.MinDepth() > options.depth) {
      return fail("depth: too small for the batch "
                  "(need at least every query's MinDepth())");
    }
    resolved.depth = std::max(resolved.depth, q.MinDepth());
  }

  std::vector<ShardQuery> work(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) work[q].query = &queries[q];
  BatchResult batch = RunShardPipeline(work, kind, resolved);
  batch.stats.relations = distinct.size();
  batch.stats.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return batch;
}

}  // namespace tetris
