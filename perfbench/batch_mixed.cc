// batch_mixed: one caller issues RunBatch(MixedShapeBatch(8, 600, 8),
// Tetris-preloaded) back to back. The batch cycles through the triangle
// R⋈S⋈T and the paths R⋈S and S⋈T over one shared random pool, so eight
// small tasks share three plans and three relation indexes.
#include "engine/batch_runner.h"
#include "engine/join_engine.h"
#include "layer_probes.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

using tetris::BatchInstance;
using tetris::BatchResult;
using tetris::EngineKind;
using tetris::Tuple;

namespace {

constexpr size_t kQueries = 8;
constexpr size_t kRows = 600;
constexpr int kDomainBits = 8;
constexpr size_t kShapes = 3;  // MixedShapeBatch cycles through three shapes

struct BatchObs {
  std::vector<double> built, hits, plans, tasks, parallelism;

  void Add(const tetris::BatchStats& s) {
    built.push_back(static_cast<double>(s.indexes_built));
    hits.push_back(static_cast<double>(s.index_cache_hits));
    plans.push_back(static_cast<double>(s.plans));
    tasks.push_back(static_cast<double>(s.tasks));
    parallelism.push_back(s.wall_ms > 0 ? s.cpu_ms / s.wall_ms : 0.0);
  }
};

}  // namespace

RunReport RunBatchMixed(const RunConfig& cfg) {
  RunReport report;
  BatchInstance b;
  BatchResult primed;
  const double setup_s = MedianSetupSeconds(kSetupReps, kSetupSeconds, [&] {
    b = tetris::MixedShapeBatch(kQueries, kRows, kDomainBits, cfg.seed);
    primed = tetris::RunBatch(b.pool, b.queries, EngineKind::kTetrisPreloaded);
  });
  if (b.queries.size() != kQueries || !primed.ok) {
    report.Mismatch("batch setup failed: " + primed.error);
    return report;
  }

  // References: one sequential per-query RunJoin per distinct shape, at
  // the batch's shared depth.
  int depth = 0;
  for (const auto& q : b.queries) depth = std::max(depth, q.MinDepth());
  tetris::EngineOptions seq;
  seq.depth = depth;
  std::vector<std::vector<Tuple>> want(kShapes);
  for (size_t s = 0; s < kShapes; ++s) {
    tetris::EngineResult r =
        tetris::RunJoin(b.queries[s], EngineKind::kTetrisPreloaded, seq);
    if (!r.ok) {
      report.Mismatch("batch reference failed: " + r.error);
      return report;
    }
    want[s] = std::move(r.tuples);
  }
  for (size_t q = 0; q < kQueries; ++q) {
    SameTuples(primed.results[q].tuples, want[q % kShapes],
               "primed batch query " + std::to_string(q), &report);
  }

  SpanLog off(false, 0), on(true, 0);
  uint64_t request = 0;
  BatchObs obs;
  TimedPhase(cfg, setup_s, &report, [&](double seconds, bool traced) {
    return ClosedLoop(
        seconds, kQueries, "engine.batch.RunBatch", traced ? &on : &off, &request,
        [&] { return tetris::RunBatch(b.pool, b.queries, EngineKind::kTetrisPreloaded); },
        [](const BatchResult& r) {
          if (!r.ok) return kQueries;
          size_t failed = 0;
          for (const tetris::EngineResult& q : r.results) failed += q.ok ? 0 : 1;
          return failed;
        },
        [&](const BatchResult& r, double) {
          for (size_t q = 0; q < kQueries; ++q) {
            SameTuples(r.results[q].tuples, want[q % kShapes],
                       "batch query " + std::to_string(q), &report);
          }
          if (traced) obs.Add(r.stats);
        });
  });
  if (!cfg.trace) return report;

  auto& m = report.per_layer;
  m["engine.batch.indexes_built"] = Median(obs.built);
  m["engine.batch.index_cache_hits"] = Median(obs.hits);
  m["engine.batch.plans"] = Median(obs.plans);
  m["engine.batch.tasks"] = Median(obs.tasks);
  m["engine.batch.parallelism"] = Median(obs.parallelism);

  ProbeInput in;
  for (size_t s = 0; s < kShapes; ++s) {
    in.queries.push_back(&b.queries[s]);
    in.outputs.push_back(&want[s]);
  }
  for (size_t q = 0; q < kQueries; ++q) in.issued.push_back(q % kShapes);
  in.relations = b.pool;
  in.depth = depth;
  in.seed = cfg.seed;
  RunLayerProbes(in, &on, ++request, &report);
  report.spans = on.spans();
  return report;
}

}  // namespace perfbench
