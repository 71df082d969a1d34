#include "engine/join_runner.h"

#include <algorithm>
#include <cassert>

#include "index/sorted_index.h"

namespace tetris {

RelationOracle::RelationOracle(const JoinQuery* query,
                               std::vector<const Index*> indexes, int depth)
    : query_(query), indexes_(std::move(indexes)), d_(depth) {
  assert(indexes_.size() == query_->atoms().size());
}

DyadicBox RelationOracle::Embed(const Atom& a,
                                const DyadicBox& rel_box) const {
  DyadicBox out = DyadicBox::Universal(query_->num_attrs());
  for (size_t c = 0; c < a.var_ids.size(); ++c) {
    out[a.var_ids[c]] = rel_box[static_cast<int>(c)];
  }
  return out;
}

void RelationOracle::Probe(const DyadicBox& point,
                           std::vector<DyadicBox>* out) const {
  ++probe_count_;
  std::vector<uint64_t> vals = point.ToPoint();
  Tuple proj;
  std::vector<DyadicBox> gaps;
  for (size_t i = 0; i < query_->atoms().size(); ++i) {
    const Atom& a = query_->atoms()[i];
    proj.clear();
    for (int id : a.var_ids) proj.push_back(vals[id]);
    gaps.clear();
    indexes_[i]->GapsContaining(proj, &gaps);
    for (const DyadicBox& g : gaps) out->push_back(Embed(a, g));
  }
}

bool RelationOracle::EnumerateAll(std::vector<DyadicBox>* out) const {
  std::vector<DyadicBox> gaps;
  size_t count = 0;
  for (size_t i = 0; i < query_->atoms().size(); ++i) {
    gaps.clear();
    indexes_[i]->AllGaps(&gaps);
    for (const DyadicBox& g : gaps) {
      out->push_back(Embed(query_->atoms()[i], g));
    }
    count += gaps.size();
  }
  enumerated_gaps_.store(count, std::memory_order_relaxed);
  return true;
}

bool RelationOracle::EnumerateIntersecting(const DyadicBox& box,
                                           std::vector<DyadicBox>* out) const {
  std::vector<DyadicBox> gaps;
  for (size_t i = 0; i < query_->atoms().size(); ++i) {
    const Atom& a = query_->atoms()[i];
    DyadicBox proj = DyadicBox::Universal(static_cast<int>(a.var_ids.size()));
    for (size_t c = 0; c < a.var_ids.size(); ++c) {
      proj[static_cast<int>(c)] = box[a.var_ids[c]];
    }
    gaps.clear();
    indexes_[i]->GapsIntersecting(proj, &gaps);
    for (const DyadicBox& g : gaps) out->push_back(Embed(a, g));
  }
  return true;
}

size_t RelationOracle::CountAllGaps() const {
  std::vector<DyadicBox> all;
  EnumerateAll(&all);
  return all.size();
}

JoinRunResult RunTetrisJoin(const JoinQuery& query,
                            const std::vector<const Index*>& indexes,
                            int depth, JoinAlgorithm algo,
                            std::vector<int> sao) {
  RelationOracle oracle(&query, indexes, depth);
  const int n = query.num_attrs();
  JoinRunResult result;
  result.output = Relation("output", query.attrs());

  // Each output point is one arity-n row of the flat output buffer.
  Relation& out = result.output;
  auto sink = [&out, n](const DyadicBox& p) {
    uint64_t row[kMaxDims];
    for (int i = 0; i < n; ++i) row[i] = p[i].bits;
    out.AddRow(row);
    return true;
  };

  switch (algo) {
    case JoinAlgorithm::kTetrisPreloaded:
    case JoinAlgorithm::kTetrisReloaded:
    case JoinAlgorithm::kTetrisPreloadedNoCache: {
      TetrisOptions opt;
      opt.init = algo == JoinAlgorithm::kTetrisReloaded
                     ? TetrisOptions::Init::kReloaded
                     : TetrisOptions::Init::kPreloaded;
      // Tree-ordered (no-cache) mode relies on preloaded runs settling
      // each output in place (TetrisSkeleton2, footnote 13): a re-descent
      // per output would repeat every resolution on its path.
      opt.cache_resolvents = algo != JoinAlgorithm::kTetrisPreloadedNoCache;
      if (sao.empty()) {
        sao = opt.init == TetrisOptions::Init::kPreloaded
                  ? query.AcyclicSao()
                  : query.MinWidthSao();
      }
      opt.sao = std::move(sao);
      UniformSpace space(n, depth);
      Tetris engine(&oracle, &space, opt);
      engine.Run(sink);
      result.stats = engine.stats();
      break;
    }
    case JoinAlgorithm::kTetrisPreloadedLB:
    case JoinAlgorithm::kTetrisReloadedLB: {
      // The lift defines its own SAO; `sao` reorders the original
      // attributes before lifting (which dimensions get partitioned).
      assert(sao.empty() && "LB variants choose their own SAO");
      TetrisLB lb(&oracle, n, depth,
                  algo == JoinAlgorithm::kTetrisPreloadedLB);
      lb.Run(sink);
      result.stats = lb.stats();
      break;
    }
  }
  result.oracle_probes = oracle.probe_count();
  for (const Index* ix : indexes) result.index_bytes += ix->MemoryBytes();
  if (algo == JoinAlgorithm::kTetrisPreloaded ||
      algo == JoinAlgorithm::kTetrisPreloadedNoCache ||
      algo == JoinAlgorithm::kTetrisPreloadedLB) {
    // The preloaded engines enumerated B(Q) once to initialize A.
    result.input_gap_boxes = oracle.enumerated_gaps();
  }
  return result;
}

std::vector<int> SaoColumnOrder(const Atom& atom,
                                const std::vector<int>& sao_pos) {
  std::vector<int> cols(atom.var_ids.size());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
  std::sort(cols.begin(), cols.end(), [&](int x, int y) {
    return sao_pos[atom.var_ids[x]] < sao_pos[atom.var_ids[y]];
  });
  return cols;
}

std::vector<std::unique_ptr<Index>> MakeSaoConsistentIndexes(
    const JoinQuery& query, const std::vector<int>& sao, int depth) {
  std::vector<int> sao_pos(query.num_attrs());
  for (size_t i = 0; i < sao.size(); ++i) sao_pos[sao[i]] = static_cast<int>(i);
  std::vector<std::unique_ptr<Index>> owned;
  for (const Atom& a : query.atoms()) {
    owned.push_back(std::make_unique<SortedIndex>(
        *a.rel, SaoColumnOrder(a, sao_pos), depth));
  }
  return owned;
}

std::vector<const Index*> IndexPtrs(
    const std::vector<std::unique_ptr<Index>>& owned) {
  std::vector<const Index*> ptrs;
  ptrs.reserve(owned.size());
  for (const auto& ix : owned) ptrs.push_back(ix.get());
  return ptrs;
}

JoinRunResult RunTetrisJoinDefaultIndexes(const JoinQuery& query,
                                          JoinAlgorithm algo) {
  const int depth = query.MinDepth();
  std::vector<std::unique_ptr<SortedIndex>> owned;
  std::vector<const Index*> indexes;
  for (const Atom& a : query.atoms()) {
    owned.push_back(std::make_unique<SortedIndex>(*a.rel, depth));
    indexes.push_back(owned.back().get());
  }
  return RunTetrisJoin(query, indexes, depth, algo);
}

}  // namespace tetris
