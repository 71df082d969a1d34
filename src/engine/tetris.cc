#include "engine/tetris.h"

#include <cassert>

#include "engine/proof_log.h"
#include "geometry/resolution.h"

namespace tetris {

Tetris::Tetris(const BoxOracle* oracle, const SplitSpace* space,
               TetrisOptions options)
    : oracle_(oracle),
      space_(space),
      options_(std::move(options)),
      kb_(space->dims()) {
  sao_ = options_.sao;
  if (sao_.empty()) {
    sao_.resize(space_->dims());
    for (size_t i = 0; i < sao_.size(); ++i) sao_[i] = static_cast<int>(i);
  }
  assert(static_cast<int>(sao_.size()) == space_->dims());
}

DyadicBox Tetris::ToEngineOrder(const DyadicBox& orig) const {
  DyadicBox b = DyadicBox::Universal(space_->dims());
  for (int j = 0; j < space_->dims(); ++j) b[j] = orig[sao_[j]];
  b.set_output_derived(orig.output_derived());
  return b;
}

DyadicBox Tetris::ToOriginalOrder(const DyadicBox& engine) const {
  DyadicBox b = DyadicBox::Universal(space_->dims());
  for (int j = 0; j < space_->dims(); ++j) b[sao_[j]] = engine[j];
  b.set_output_derived(engine.output_derived());
  return b;
}

bool Tetris::InsertKb(const DyadicBox& engine_box) {
  if (kb_.Insert(engine_box)) {
    ++stats_.kb_inserts;
    return true;
  }
  return false;
}

void Tetris::LoadGap(const DyadicBox& gap) {
  DyadicBox eng = ToEngineOrder(gap);
  if (InsertKb(eng)) {
    ++stats_.boxes_loaded;
    if (options_.proof_log) options_.proof_log->AddAxiom(eng);
  }
}

std::pair<bool, DyadicBox> Tetris::EmitOutput(const DyadicBox& point) {
  ++stats_.outputs;
  DyadicBox out_box = point;
  if (!(*sink_)(ToOriginalOrder(point))) return {false, out_box};
  out_box.set_output_derived(true);
  InsertKb(out_box);  // amend A with the output box
  if (options_.proof_log) options_.proof_log->AddOutput(out_box);
  return {true, out_box};
}

std::pair<bool, DyadicBox> Tetris::Skeleton(const DyadicBox& b) {
  ++stats_.skeleton_nodes;
  // Lines 1-2: a box of A covers b.
  if (const DyadicBox* a = kb_.FindContaining(b)) return {true, *a};
  // Lines 3-4: b is a point not covered by A.
  int split_dim = space_->FirstThickDim(b);
  if (split_dim < 0) {
    if (options_.init == TetrisOptions::Init::kReloaded) return {false, b};
    // TetrisSkeleton2 (proof of Theorem D.2, footnote 13): A ⊇ B, so the
    // point is an output. Report it here and let its output box be the
    // witness, instead of re-descending from the root for the next one.
    auto settled = EmitOutput(b);
    if (!settled.first) stop_requested_ = true;
    return settled;
  }
  // Line 6: split on the first thick dimension.
  DyadicBox b1 = b, b2 = b;
  b1[split_dim] = b[split_dim].Child(0);
  b2[split_dim] = b[split_dim].Child(1);

  auto [v1, w1] = Skeleton(b1);
  if (!v1) return {false, w1};
  if (w1.Contains(b)) return {true, w1};  // line 11

  auto [v2, w2] = Skeleton(b2);  // backtracking
  if (!v2) return {false, w2};
  if (w2.Contains(b)) return {true, w2};  // line 16

  // Line 18: geometric resolution of the two witnesses. Lemma C.1
  // guarantees the ordered shape, so this cannot fail.
  auto r = OrderedResolve(w1, w2);
  assert(r.has_value() && "Lemma C.1 violated: resolution must apply");
  if (options_.proof_log) {
    options_.proof_log->AddStep(w1, w2, r->box, r->pivot_dim);
  }
  ++stats_.resolutions;
  if (w1.output_derived() || w2.output_derived()) {
    ++stats_.output_resolutions;
  } else {
    ++stats_.gap_resolutions;
  }
  if (options_.cache_resolvents) InsertKb(r->box);  // line 19
  return {true, r->box};
}

RunStatus Tetris::Run(const OutputSink& sink) {
  RunStatus status = RunImpl(sink);
  // A only grows within a run, so its final footprint is its peak.
  const int64_t kb_bytes = static_cast<int64_t>(kb_.MemoryBytes());
  if (kb_bytes > stats_.kb_peak_bytes) stats_.kb_peak_bytes = kb_bytes;
  return status;
}

RunStatus Tetris::RunImpl(const OutputSink& sink) {
  // Initialize(A) — line 1 of Algorithm 2.
  if (options_.init == TetrisOptions::Init::kPreloaded) {
    std::vector<DyadicBox> all;
    bool ok = oracle_->EnumerateAll(&all);
    assert(ok && "preloaded mode requires an enumerable oracle");
    (void)ok;
    for (const DyadicBox& b : all) LoadGap(b);
  }

  // Algorithm 2's outer loop. Under kPreloaded the first skeleton call
  // settles every output in place and covers the space; under kReloaded
  // each uncovered point is checked against B: either B's gap boxes
  // containing it are loaded into A, or it is an output tuple.
  const DyadicBox universal = DyadicBox::Universal(space_->dims());
  sink_ = &sink;
  stop_requested_ = false;
  std::vector<DyadicBox> probe_result;
  for (;;) {
    ++stats_.skeleton_calls;
    auto [covered, w] = Skeleton(universal);
    if (stop_requested_) return RunStatus::kStoppedBySink;
    if (covered) return RunStatus::kCompleted;  // whole space covered.

    probe_result.clear();
    oracle_->Probe(ToOriginalOrder(w), &probe_result);
    if (probe_result.empty()) {
      if (!EmitOutput(w).first) return RunStatus::kStoppedBySink;
      continue;
    }
    for (const DyadicBox& b : probe_result) LoadGap(b);
    if (options_.load_budget >= 0 &&
        stats_.boxes_loaded > options_.load_budget) {
      return RunStatus::kBudgetExceeded;
    }
  }
}

bool IsFullyCovered(const BoxOracle& oracle, const SplitSpace& space,
                    TetrisOptions options, TetrisStats* stats) {
  Tetris engine(&oracle, &space, std::move(options));
  RunStatus status = engine.Run([](const DyadicBox&) { return false; });
  if (stats) *stats = engine.stats();
  // Completed without ever producing an uncovered point == fully covered.
  return status == RunStatus::kCompleted;
}

}  // namespace tetris
