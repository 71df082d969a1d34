#include "engine/incremental.h"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
#include "geometry/box_restrict.h"

namespace tetris {

TupleTouch TouchedBoxOfTuple(const std::vector<int>& var_ids, int num_attrs,
                             int depth, const Tuple& t, DyadicBox* out) {
  DyadicBox box = DyadicBox::Universal(num_attrs);
  for (size_t c = 0; c < var_ids.size(); ++c) {
    const uint64_t v = t[c];
    if (depth > kMaxDepth || (v >> depth) != 0) {
      // A value off the depth-`depth` grid: the delta changes which
      // depth the query is even servable at, so nothing is provably
      // untouched.
      return TupleTouch::kEverything;
    }
    const DyadicInterval unit = DyadicInterval::Unit(v, depth);
    DyadicInterval& dim = box[var_ids[c]];
    if (dim.IsLambda()) {
      dim = unit;
    } else if (dim != unit) {
      // The atom binds two of its columns to the same query attribute
      // and this tuple disagrees on them: it can never project onto an
      // output point, so it touches nothing.
      return TupleTouch::kNone;
    }
  }
  *out = box;
  return TupleTouch::kBox;
}

std::vector<DyadicBox> TouchedOutputBoxes(const JoinQuery& query, int depth,
                                          const std::string& rel_name,
                                          const std::vector<Tuple>& changed) {
  std::vector<DyadicBox> boxes;
  std::unordered_set<DyadicBox, DyadicBoxHash> seen;
  const int n = query.num_attrs();
  for (const Atom& atom : query.atoms()) {
    if (atom.rel == nullptr || atom.rel->name() != rel_name) continue;
    for (const Tuple& t : changed) {
      DyadicBox box;
      switch (TouchedBoxOfTuple(atom.var_ids, n, depth, t, &box)) {
        case TupleTouch::kNone:
          break;
        case TupleTouch::kEverything:
          return {DyadicBox::Universal(n)};
        case TupleTouch::kBox:
          if (seen.insert(box).second) boxes.push_back(box);
          break;
      }
    }
  }
  return boxes;
}

PatchResult PatchJoin(const JoinQuery& query, EngineKind kind,
                      const EngineOptions& options,
                      const std::vector<Tuple>& old_tuples,
                      const std::vector<DyadicBox>& touched) {
  const auto t0 = std::chrono::steady_clock::now();
  PatchResult out;
  out.result.stats.engine = kind;
  auto finish = [&t0, &out]() -> PatchResult& {
    const auto t1 = std::chrono::steady_clock::now();
    out.result.stats.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return out;
  };

  // Validation mirrors RunJoin so a patch fails exactly where a fresh
  // run would, with the same message. An unsupported query counts as a
  // full recompute, as a fresh run is what would have been needed.
  out.result.error = EngineSupportError(kind, query);
  if (!out.result.error.empty()) {
    out.full_recompute = true;
    return finish();
  }
  out.result.error = OrderHintError(kind, options.order, query.num_attrs());
  if (!out.result.error.empty()) return finish();

  // Nothing touched: the old result is the new result, no planning.
  if (touched.empty()) {
    out.result.ok = true;
    out.result.tuples = old_tuples;
    out.result.stats.output_tuples = old_tuples.size();
    out.result.stats.memory.output_bytes =
        ResultOutputBytes(old_tuples.size(), query.num_attrs());
    out.tuples_kept = old_tuples.size();
    out.note = "empty delta: result unchanged, 0 shards re-run";
    AppendNote(&out.result.shard_note, out.note);
    return finish();
  }

  const int depth = options.depth > 0 ? options.depth : query.MinDepth();
  auto full_run = [&](const std::string& why) -> PatchResult& {
    out.result = RunJoin(query, kind, options);
    out.full_recompute = true;
    out.note = "full recompute: " + why;
    AppendNote(&out.result.shard_note, out.note);
    out.tuples_patched = out.result.tuples.size();
    return finish();
  };
  for (const DyadicBox& b : touched) {
    if (b.Support().empty()) {
      return full_run("a touched box covers the whole output space");
    }
  }

  // A batch of one through the shard pipeline, filtered to the shards
  // whose subcube meets a touched box — a shard disjoint from every
  // touched box is provably unchanged. The filter records every re-run
  // box, empty shards included: their old tuples must go too.
  std::vector<DyadicBox> rerun;
  ShardQuery patch;
  patch.query = &query;
  if (options.indexes.size() == query.atoms().size()) {
    patch.indexes = options.indexes;
  }
  patch.filter = [&touched, &rerun](const DyadicBox& box) {
    if (!IntersectsAny(box, touched)) return false;
    rerun.push_back(box);
    return true;
  };
  EngineResult fresh = std::move(
      RunShardPipeline({patch}, kind, OneQueryBatch(options, depth))
          .results[0]);
  if (!fresh.ok) return full_run("shard failed (" + fresh.error + ")");
  out.shards_total = fresh.stats.shards;
  out.shards_rerun = rerun.size();

  // Splice: keep old tuples outside every re-run box (unchanged by
  // construction), replace everything inside with the fresh outputs.
  EngineResult& res = out.result;
  res = std::move(fresh);
  out.tuples_patched = res.tuples.size();
  for (const Tuple& t : old_tuples) {
    bool in_rerun = false;
    for (const DyadicBox& box : rerun) {
      if (box.ContainsPoint(t, depth)) {
        in_rerun = true;
        break;
      }
    }
    if (!in_rerun) {
      res.tuples.push_back(t);
      ++out.tuples_kept;
    }
  }
  CanonicalizeTuples(&res.tuples);
  res.stats.output_tuples = res.tuples.size();
  res.stats.memory.output_bytes =
      ResultOutputBytes(res.tuples.size(), query.num_attrs());
  out.note = "patched " + std::to_string(out.shards_rerun) + "/" +
             std::to_string(out.shards_total) + " shards from " +
             std::to_string(touched.size()) + " touched box(es); kept " +
             std::to_string(out.tuples_kept) + " tuples";
  AppendNote(&res.shard_note, out.note);
  return finish();
}

}  // namespace tetris
