// Per-layer probes shared by every workload's traced run.
#ifndef PERFBENCH_LAYER_PROBES_H_
#define PERFBENCH_LAYER_PROBES_H_

#include <vector>

#include "harness.h"
#include "query/join_query.h"
#include "relation/relation.h"

namespace perfbench {

/// What the probes run on: the workload's distinct queries, the
/// relations they read, and each query's expected output.
struct ProbeInput {
  std::vector<const tetris::JoinQuery*> queries;
  std::vector<const tetris::Relation*> relations;
  std::vector<const std::vector<tetris::Tuple>*> outputs;  ///< per query
  /// The queries one call of the workload issues, as indexes into
  /// `queries`; empty = each query once.
  std::vector<size_t> issued;
  int depth = 0;  ///< the dyadic depth the workload runs at
  uint64_t seed = 0;
};

/// Times single calls into the engine.shard, engine.tetris, kb, index,
/// relation and baseline layers over `in`, under span `request`, and
/// fills their per-layer metrics, plus engine.batch.sequential_ms: the
/// issued queries as full-width RunJoins one after another. Checks that
/// every engine run it makes reproduces the expected output.
void RunLayerProbes(const ProbeInput& in, SpanLog* log, uint64_t request,
                    RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PROBES_H_
