#include "layer_probes.h"

#include <algorithm>
#include <memory>

#include "engine/join_engine.h"
#include "engine/join_runner.h"
#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
#include "index/sorted_index.h"
#include "kb/dyadic_tree_store.h"
#include "util/rng.h"

namespace perfbench {

using tetris::DyadicBox;
using tetris::EngineKind;
using tetris::EngineOptions;
using tetris::JoinQuery;
using tetris::Relation;
using tetris::Tuple;

namespace {

// Shortest probe stretch per timed layer call, so sub-millisecond calls
// are repeated until their median is steady.
constexpr double kMinProbeMs = 60.0;

// engine.tetris (unsharded, sequential) and baseline (generic join) over
// every query; the Tetris counters are those of one sweep and repeat
// exactly run to run.
void ProbeEngines(const ProbeInput& in, SpanLog* log, uint64_t request,
                  RunReport* report) {
  EngineOptions seq;
  seq.depth = in.depth;
  seq.shards = 0;
  seq.threads = 1;
  tetris::TetrisStats counters;
  auto sweep = [&](EngineKind kind, const char* span, bool count) {
    for (size_t q = 0; q < in.queries.size(); ++q) {
      tetris::EngineResult r;
      {
        ScopedSpan s(log, span, 0, request);
        r = tetris::RunJoin(*in.queries[q], kind, seq);
      }
      if (!r.ok) {
        report->Mismatch(std::string(span) + " failed: " + r.error);
        return;
      }
      SameTuples(r.tuples, *in.outputs[q], span, report);
      if (count) counters.Accumulate(r.stats.tetris);
    }
  };
  bool first = true;
  auto& m = report->per_layer;
  m["engine.tetris.unsharded_ms"] = MedianCallMs(3, 0.0, [&] {
    sweep(EngineKind::kTetrisPreloaded, "engine.tetris.RunJoin", first);
    first = false;
  });
  m["engine.tetris.resolutions"] = static_cast<double>(counters.resolutions);
  m["engine.tetris.kb_inserts"] = static_cast<double>(counters.kb_inserts);
  m["engine.tetris.boxes_loaded"] = static_cast<double>(counters.boxes_loaded);
  m["engine.tetris.kb_peak_bytes"] = static_cast<double>(counters.kb_peak_bytes);
  m["baseline.generic_join_ms"] = MedianCallMs(3, 0.0, [&] {
    sweep(EngineKind::kGenericJoin, "baseline.RunJoin", false);
  });
}

// engine.shard: PlanShards with the options an auto-sharded full-width
// run hands it.
void ProbePlanner(const ProbeInput& in, SpanLog* log, uint64_t request,
                  RunReport* report) {
  tetris::ShardPlanOptions popt;
  popt.shards = tetris::kAutoShards;
  popt.threads_hint = tetris::WorkStealingPool::Global().threads();
  popt.depth = in.depth;
  report->per_layer["engine.shard.plan_ms"] = MedianCallMs(5, kMinProbeMs, [&] {
    for (const JoinQuery* q : in.queries) {
      ScopedSpan s(log, "engine.shard.PlanShards", 0, request);
      tetris::ShardPlan plan = tetris::PlanShards(*q, popt);
      (void)plan;
    }
  });
}

// index: SortedIndex builds over the relations, and |B(Q)| per query.
// kb: replays each query's gap boxes into a DyadicTreeStore, then looks
// every one of them up again.
void ProbeIndexAndKb(const ProbeInput& in, SpanLog* log, uint64_t request,
                     RunReport* report) {
  auto& m = report->per_layer;
  m["index.build_ms"] = MedianCallMs(5, kMinProbeMs, [&] {
    for (const Relation* r : in.relations) {
      ScopedSpan s(log, "index.SortedIndex", 0, request);
      tetris::SortedIndex idx(*r, in.depth);
      (void)idx;
    }
  });

  size_t gap_boxes = 0;
  std::vector<std::vector<DyadicBox>> boxes(in.queries.size());
  for (size_t q = 0; q < in.queries.size(); ++q) {
    const JoinQuery& query = *in.queries[q];
    std::vector<std::unique_ptr<tetris::SortedIndex>> owned;
    std::vector<const tetris::Index*> ptrs;
    for (const tetris::Atom& a : query.atoms()) {
      owned.push_back(std::make_unique<tetris::SortedIndex>(*a.rel, in.depth));
      ptrs.push_back(owned.back().get());
    }
    tetris::RelationOracle oracle(&query, ptrs, in.depth);
    ScopedSpan s(log, "index.RelationOracle.EnumerateAll", 0, request);
    gap_boxes += oracle.CountAllGaps();
    oracle.EnumerateAll(&boxes[q]);
  }
  m["index.gap_boxes"] = static_cast<double>(gap_boxes);

  size_t total = 0;
  for (const auto& b : boxes) total += b.size();
  if (total == 0) {
    m["kb.insert_ns"] = 0.0;
    m["kb.find_ns"] = 0.0;
    return;
  }
  std::vector<double> insert_ns, find_ns;
  double spent_ms = 0.0;
  size_t misses = 0;
  while ((insert_ns.size() < 5 || spent_ms < kMinProbeMs) &&
         insert_ns.size() < 1000) {
    double ins_ms = 0.0, find_ms = 0.0;
    for (size_t q = 0; q < boxes.size(); ++q) {
      tetris::DyadicTreeStore store(in.queries[q]->num_attrs());
      {
        ScopedSpan s(log, "kb.Insert", 0, request);
        const auto t0 = Clock::now();
        for (const DyadicBox& b : boxes[q]) store.Insert(b);
        ins_ms += MsSince(t0);
      }
      ScopedSpan s(log, "kb.FindContaining", 0, request);
      const auto t0 = Clock::now();
      for (const DyadicBox& b : boxes[q]) {
        if (store.FindContaining(b) == nullptr) ++misses;
      }
      find_ms += MsSince(t0);
    }
    insert_ns.push_back(ins_ms * 1e6 / total);
    find_ns.push_back(find_ms * 1e6 / total);
    spent_ms += ins_ms + find_ms;
  }
  if (misses > 0) {
    report->Mismatch("kb.FindContaining missed " + std::to_string(misses) +
                     " inserted boxes");
  }
  m["kb.insert_ns"] = Median(insert_ns);
  m["kb.find_ns"] = Median(find_ns);
}

// relation: Canonicalize (sort + dedup, the merge step) over each
// query's output tuples in a seeded shuffled order.
void ProbeCanonicalize(const ProbeInput& in, SpanLog* log, uint64_t request,
                       RunReport* report) {
  tetris::Rng rng(in.seed ^ 0x5eedcafeULL);
  std::vector<Relation> shuffled;
  for (size_t q = 0; q < in.outputs.size(); ++q) {
    std::vector<Tuple> t = *in.outputs[q];
    for (size_t i = t.size(); i > 1; --i) std::swap(t[i - 1], t[rng.Below(i)]);
    std::vector<std::string> attrs;
    for (int a = 0; a < in.queries[q]->num_attrs(); ++a) {
      attrs.push_back("x" + std::to_string(a));
    }
    Relation r("out" + std::to_string(q), attrs);
    r.Reserve(t.size());
    for (const Tuple& row : t) r.Add(row);
    shuffled.push_back(std::move(r));
  }
  std::vector<double> ms;
  double spent_ms = 0.0;
  while ((ms.size() < 5 || spent_ms < kMinProbeMs) && ms.size() < 1000) {
    std::vector<Relation> work = shuffled;  // copied outside the timing
    const auto t0 = Clock::now();
    for (Relation& r : work) {
      ScopedSpan s(log, "relation.Canonicalize", 0, request);
      r.Canonicalize();
    }
    ms.push_back(MsSince(t0));
    spent_ms += ms.back();
  }
  report->per_layer["relation.canonicalize_ms"] = Median(ms);
}

// engine.batch: the batch speedup's reference — the queries one call
// issues, each as its own full-width RunJoin, one after another.
void ProbeSequential(const ProbeInput& in, SpanLog* log, uint64_t request,
                     RunReport* report) {
  std::vector<size_t> issued = in.issued;
  for (size_t q = 0; issued.empty() && q < in.queries.size(); ++q) issued.push_back(q);
  EngineOptions wide;
  wide.depth = in.depth;
  wide.threads = 0;
  report->per_layer["engine.batch.sequential_ms"] = MedianCallMs(3, 0.0, [&] {
    for (size_t q : issued) {
      tetris::EngineResult r;
      {
        ScopedSpan s(log, "engine.tetris.RunJoin", 0, request);
        r = tetris::RunJoin(*in.queries[q], EngineKind::kTetrisPreloaded, wide);
      }
      if (!r.ok) {
        report->Mismatch("sequential sweep failed: " + r.error);
        return;
      }
      SameTuples(r.tuples, *in.outputs[q], "sequential sweep", report);
    }
  });
}

}  // namespace

void RunLayerProbes(const ProbeInput& in, SpanLog* log, uint64_t request,
                    RunReport* report) {
  ProbeEngines(in, log, request, report);
  ProbePlanner(in, log, request, report);
  ProbeIndexAndKb(in, log, request, report);
  ProbeCanonicalize(in, log, request, report);
  ProbeSequential(in, log, request, report);
}

}  // namespace perfbench
