// triangle_sharded: one caller issues an auto-sharded, full-width
// Tetris-preloaded RunJoin of the AGM-tight grid triangle back to back.
//
// The instance is FullGridTriangle(48) (paper §4.3: every relation is the
// full m x m grid, |output| = m^3) with each attribute's values relabelled
// by a seed-chosen XOR mask over the 6-bit domain. XOR by a constant maps
// dyadic intervals onto dyadic intervals, so every seed does the same
// Tetris work (the counters repeat exactly) on different values. m = 48 is
// not a power of two, so dyadic splits are uneven (32:16) and shards
// straggle.
#include <algorithm>

#include "engine/join_engine.h"
#include "layer_probes.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

using tetris::EngineKind;
using tetris::EngineOptions;
using tetris::EngineResult;
using tetris::QueryInstance;
using tetris::Relation;
using tetris::Tuple;

namespace {

constexpr uint64_t kM = 48;
constexpr int kDomainBits = 6;

QueryInstance MakeTriangle(uint64_t seed) {
  tetris::Rng rng(seed);
  const uint64_t domain = uint64_t{1} << kDomainBits;
  const uint64_t a = rng.Below(domain), b = rng.Below(domain), c = rng.Below(domain);
  const uint64_t masks[3][2] = {{a, b}, {b, c}, {a, c}};  // R(A,B), S(B,C), T(A,C)
  QueryInstance grid = tetris::FullGridTriangle(kM);
  QueryInstance qi;
  for (size_t r = 0; r < grid.storage.size(); ++r) {
    const Relation& g = *grid.storage[r];
    std::vector<Tuple> rows;
    rows.reserve(g.size());
    for (tetris::TupleRef t : g.rows()) {
      rows.push_back({t[0] ^ masks[r][0], t[1] ^ masks[r][1]});
    }
    qi.storage.push_back(std::make_unique<Relation>(
        Relation::Make(g.name(), g.attrs(), std::move(rows))));
  }
  qi.Bind();
  return qi;
}

// Per-call shard observations of the traced loop.
struct ShardObs {
  std::vector<double> shards, empty, parallelism, straggler, critical;

  void Add(const EngineResult& r, double call_ms) {
    double sum = 0.0, longest = 0.0, live_sum = 0.0;
    size_t empties = 0, live = 0;
    for (const tetris::ShardRunInfo& s : r.shard_runs) {
      sum += s.stats.wall_ms;
      longest = std::max(longest, s.stats.wall_ms);
      if (s.skipped_empty) {
        ++empties;
      } else {
        ++live;
        live_sum += s.stats.wall_ms;
      }
    }
    shards.push_back(static_cast<double>(r.shard_runs.size()));
    empty.push_back(static_cast<double>(empties));
    parallelism.push_back(call_ms > 0 ? sum / call_ms : 0.0);
    critical.push_back(call_ms > 0 ? longest / call_ms : 0.0);
    straggler.push_back(live > 0 && live_sum > 0 ? longest / (live_sum / live)
                                                 : 0.0);
  }
};

}  // namespace

RunReport RunTriangleSharded(const RunConfig& cfg) {
  RunReport report;
  QueryInstance qi;
  EngineOptions sharded;
  sharded.shards = tetris::kAutoShards;
  sharded.threads = 0;
  EngineResult primed;
  const double setup_s = MedianSetupSeconds(kSetupReps, kSetupSeconds, [&] {
    qi = MakeTriangle(cfg.seed);
    primed = tetris::RunJoin(qi.query, EngineKind::kTetrisPreloaded, sharded);
  });

  // Reference: the sequential unsharded run, computed once.
  EngineOptions seq;
  seq.shards = 0;
  seq.threads = 1;
  const EngineResult ref =
      tetris::RunJoin(qi.query, EngineKind::kTetrisPreloaded, seq);
  if (!ref.ok || !primed.ok) {
    report.Mismatch("triangle setup failed: " + ref.error + primed.error);
    return report;
  }
  if (ref.tuples.size() != kM * kM * kM) {
    report.Mismatch("unsharded triangle has " +
                    std::to_string(ref.tuples.size()) + " tuples, not m^3");
    return report;
  }
  SameTuples(primed.tuples, ref.tuples, "primed sharded triangle", &report);

  SpanLog off(false, 0), on(true, 0);
  uint64_t request = 0;
  ShardObs obs;
  TimedPhase(cfg, setup_s, &report, [&](double seconds, bool traced) {
    return ClosedLoop(
        seconds, 1, "engine.tetris.RunJoin", traced ? &on : &off, &request,
        [&] {
          return tetris::RunJoin(qi.query, EngineKind::kTetrisPreloaded, sharded);
        },
        [](const EngineResult& r) { return r.ok ? 0 : 1; },
        [&](const EngineResult& r, double ms) {
          SameTuples(r.tuples, ref.tuples, "sharded triangle", &report);
          if (traced) obs.Add(r, ms);
        });
  });
  if (!cfg.trace) return report;

  auto& m = report.per_layer;
  m["engine.shard.shards"] = Median(obs.shards);
  m["engine.shard.empty_shards"] = Median(obs.empty);
  m["engine.shard.parallelism"] = Median(obs.parallelism);
  m["engine.shard.straggler_ratio"] = Median(obs.straggler);
  m["engine.shard.critical_share"] = Median(obs.critical);

  ProbeInput in;
  in.queries = {&qi.query};
  in.relations = {qi.storage[0].get(), qi.storage[1].get(), qi.storage[2].get()};
  in.outputs = {&ref.tuples};
  in.depth = qi.depth;
  in.seed = cfg.seed;
  RunLayerProbes(in, &on, ++request, &report);
  report.spans = on.spans();
  return report;
}

}  // namespace perfbench
