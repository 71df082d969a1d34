#include "engine/tetris.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/measure.h"
#include "util/rng.h"

namespace tetris {
namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}
const DyadicInterval kLam = DyadicInterval::Lambda();

// Collects all Tetris outputs as sorted point tuples.
std::vector<std::vector<uint64_t>> RunCollect(const BoxOracle& oracle,
                                              const SplitSpace& space,
                                              TetrisOptions opt,
                                              TetrisStats* stats = nullptr) {
  Tetris engine(&oracle, &space, std::move(opt));
  std::vector<std::vector<uint64_t>> out;
  RunStatus status = engine.Run([&](const DyadicBox& p) {
    out.push_back(p.ToPoint());
    return true;
  });
  EXPECT_EQ(status, RunStatus::kCompleted);
  if (stats) *stats = engine.stats();
  std::sort(out.begin(), out.end());
  return out;
}

// Brute-force reference: every grid point not covered by any box.
std::vector<std::vector<uint64_t>> BruteUncovered(
    const std::vector<DyadicBox>& boxes, int n, int d) {
  std::vector<std::vector<uint64_t>> out;
  std::vector<uint64_t> t(n, 0);
  const uint64_t dom = uint64_t{1} << d;
  for (;;) {
    bool covered = false;
    for (const auto& b : boxes) {
      if (b.ContainsPoint(t, d)) {
        covered = true;
        break;
      }
    }
    if (!covered) out.push_back(t);
    int i = n - 1;
    while (i >= 0 && ++t[i] == dom) t[i--] = 0;
    if (i < 0) break;
  }
  return out;
}

// The paper's Example 4.4 / Figure 10 BCP instance.
std::vector<DyadicBox> Example44Boxes() {
  return {
      DyadicBox::Of({kLam, Iv(0b0, 1)}),
      DyadicBox::Of({Iv(0b00, 2), kLam}),
      DyadicBox::Of({kLam, Iv(0b11, 2)}),
      DyadicBox::Of({Iv(0b10, 2), Iv(0b1, 1)}),
  };
}

TEST(Tetris, PaperExample44OutputsTwoTuples) {
  MaterializedOracle oracle(2);
  oracle.AddAll(Example44Boxes());
  UniformSpace space(2, 2);
  for (auto init : {TetrisOptions::Init::kPreloaded,
                    TetrisOptions::Init::kReloaded}) {
    TetrisOptions opt;
    opt.init = init;
    auto out = RunCollect(oracle, space, opt);
    // Expected output tuples: <01,10> = (1,2) and <11,10> = (3,2).
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(out[1], (std::vector<uint64_t>{3, 2}));
  }
}

TEST(Tetris, EmptyInputEnumeratesWholeGrid) {
  MaterializedOracle oracle(2);
  UniformSpace space(2, 2);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  auto out = RunCollect(oracle, space, opt);
  EXPECT_EQ(out.size(), 16u);
}

TEST(Tetris, UniversalBoxGivesEmptyOutput) {
  MaterializedOracle oracle(3);
  oracle.Add(DyadicBox::Universal(3));
  UniformSpace space(3, 4);
  TetrisStats stats;
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kPreloaded;
  auto out = RunCollect(oracle, space, opt, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.outputs, 0);
  EXPECT_EQ(stats.resolutions, 0);  // covered at the root, nothing to do
}

// Paper Figure 5: triangle-query gap boxes whose union covers the whole
// cube -> empty output.
TEST(Tetris, PaperFigure5EmptyJoin) {
  const int d = 4;
  MaterializedOracle oracle(3);
  // R(A,B): gaps <0,0,λ>, <1,1,λ>; S(B,C): <λ,0,0>, <λ,1,1>;
  // T(A,C): <0,λ,0>, <1,λ,1>.
  oracle.Add(DyadicBox::Of({Iv(0, 1), Iv(0, 1), kLam}));
  oracle.Add(DyadicBox::Of({Iv(1, 1), Iv(1, 1), kLam}));
  oracle.Add(DyadicBox::Of({kLam, Iv(0, 1), Iv(0, 1)}));
  oracle.Add(DyadicBox::Of({kLam, Iv(1, 1), Iv(1, 1)}));
  oracle.Add(DyadicBox::Of({Iv(0, 1), kLam, Iv(0, 1)}));
  oracle.Add(DyadicBox::Of({Iv(1, 1), kLam, Iv(1, 1)}));
  UniformSpace space(3, d);
  for (auto init : {TetrisOptions::Init::kPreloaded,
                    TetrisOptions::Init::kReloaded}) {
    TetrisOptions opt;
    opt.init = init;
    auto out = RunCollect(oracle, space, opt);
    EXPECT_TRUE(out.empty());
  }
}

// Paper Figure 6: T' has msb(a) == msb(c); the output is non-empty.
TEST(Tetris, PaperFigure6NonEmptyJoin) {
  const int d = 2;
  std::vector<DyadicBox> boxes = {
      DyadicBox::Of({Iv(0, 1), Iv(0, 1), kLam}),
      DyadicBox::Of({Iv(1, 1), Iv(1, 1), kLam}),
      DyadicBox::Of({kLam, Iv(0, 1), Iv(0, 1)}),
      DyadicBox::Of({kLam, Iv(1, 1), Iv(1, 1)}),
      DyadicBox::Of({Iv(0, 1), kLam, Iv(1, 1)}),  // T' gaps
      DyadicBox::Of({Iv(1, 1), kLam, Iv(0, 1)}),
  };
  MaterializedOracle oracle(3);
  oracle.AddAll(boxes);
  UniformSpace space(3, d);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  auto out = RunCollect(oracle, space, opt);
  auto expected = BruteUncovered(boxes, 3, d);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
  EXPECT_FALSE(out.empty());
}

TEST(Tetris, SinkCanStopEarly) {
  MaterializedOracle oracle(2);
  UniformSpace space(2, 3);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  Tetris engine(&oracle, &space, opt);
  int seen = 0;
  RunStatus status = engine.Run([&](const DyadicBox&) {
    return ++seen < 3;
  });
  EXPECT_EQ(status, RunStatus::kStoppedBySink);
  EXPECT_EQ(seen, 3);
}

TEST(Tetris, LoadBudgetTriggersRestartSignal) {
  MaterializedOracle oracle(2);
  // Many thin boxes so reloaded mode must load a lot.
  for (uint64_t x = 0; x < 8; ++x) {
    oracle.Add(DyadicBox::Of({Iv(x, 3), kLam}));
  }
  UniformSpace space(2, 3);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  opt.load_budget = 2;
  Tetris engine(&oracle, &space, opt);
  EXPECT_EQ(engine.Run([](const DyadicBox&) { return true; }),
            RunStatus::kBudgetExceeded);
}

TEST(Tetris, StatsAreConsistent) {
  MaterializedOracle oracle(2);
  oracle.AddAll(Example44Boxes());
  UniformSpace space(2, 2);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  TetrisStats stats;
  auto out = RunCollect(oracle, space, opt, &stats);
  EXPECT_EQ(stats.outputs, static_cast<int64_t>(out.size()));
  EXPECT_LE(stats.boxes_loaded, static_cast<int64_t>(oracle.size()));
  EXPECT_EQ(stats.resolutions,
            stats.gap_resolutions + stats.output_resolutions);
  EXPECT_GT(stats.skeleton_calls, 0);
}

TEST(Tetris, NoCacheModeStillCorrect) {
  MaterializedOracle oracle(2);
  oracle.AddAll(Example44Boxes());
  UniformSpace space(2, 2);
  TetrisOptions cached, uncached;
  cached.init = uncached.init = TetrisOptions::Init::kPreloaded;
  uncached.cache_resolvents = false;
  TetrisStats s_cached, s_uncached;
  auto a = RunCollect(oracle, space, cached, &s_cached);
  auto b = RunCollect(oracle, space, uncached, &s_uncached);
  EXPECT_EQ(a, b);
  // Without caching the engine may repeat resolutions but never fewer.
  EXPECT_GE(s_uncached.resolutions, s_cached.resolutions);
}

TEST(Tetris, SaoPermutationPreservesOutput) {
  std::vector<DyadicBox> boxes = Example44Boxes();
  MaterializedOracle oracle(2);
  oracle.AddAll(boxes);
  UniformSpace space(2, 2);
  for (auto sao : {std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
    TetrisOptions opt;
    opt.init = TetrisOptions::Init::kReloaded;
    opt.sao = sao;
    auto out = RunCollect(oracle, space, opt);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(out[1], (std::vector<uint64_t>{3, 2}));
  }
}

TEST(Tetris, OneDimensionalIntersection) {
  // Two "unary relations" as complements: gaps of {1,3} and {3,5} over
  // d=3 -> intersection {3}.
  auto gaps_of = [](std::set<uint64_t> vals) {
    std::vector<DyadicBox> out;
    uint64_t prev = 0;
    for (uint64_t v : vals) {
      for (uint64_t x = prev; x < v; ++x) {
        out.push_back(DyadicBox::Of({Iv(x, 3)}));
      }
      prev = v + 1;
    }
    for (uint64_t x = prev; x < 8; ++x) {
      out.push_back(DyadicBox::Of({Iv(x, 3)}));
    }
    return out;
  };
  MaterializedOracle oracle(1);
  for (const auto& b : gaps_of({1, 3})) oracle.Add(b);
  for (const auto& b : gaps_of({3, 5})) oracle.Add(b);
  UniformSpace space(1, 3);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  auto out = RunCollect(oracle, space, opt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (std::vector<uint64_t>{3}));
}

// Property sweep: random box sets, all engine configurations, outputs
// must equal the brute-force complement.
struct BcpCase {
  int n;
  int d;
  int boxes;
  uint64_t seed;
};

class TetrisProperty : public ::testing::TestWithParam<BcpCase> {};

TEST_P(TetrisProperty, MatchesBruteForce) {
  const auto [n, d, num_boxes, seed] = GetParam();
  Rng rng(seed);
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<DyadicBox> boxes;
    for (int i = 0; i < num_boxes; ++i) {
      DyadicBox b = DyadicBox::Universal(n);
      for (int j = 0; j < n; ++j) {
        // Bias toward longer intervals so outputs stay non-trivial.
        int len = static_cast<int>(rng.Below(d + 1));
        if (rng.Chance(0.3)) len = d;
        b[j] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
      }
      boxes.push_back(b);
    }
    auto expected = BruteUncovered(boxes, n, d);
    std::sort(expected.begin(), expected.end());

    MaterializedOracle oracle(n);
    oracle.AddAll(boxes);
    UniformSpace space(n, d);
    for (auto init : {TetrisOptions::Init::kPreloaded,
                      TetrisOptions::Init::kReloaded}) {
      for (bool cache : {true, false}) {
        if (!cache && init != TetrisOptions::Init::kPreloaded) continue;
        TetrisOptions opt;
        opt.init = init;
        opt.cache_resolvents = cache;
        auto out = RunCollect(oracle, space, opt);
        ASSERT_EQ(out, expected)
            << "n=" << n << " d=" << d << " iter=" << iter
            << " init=" << static_cast<int>(init) << " cache=" << cache;
      }
    }
    // Coverage decision must agree with the measure.
    double uncovered = UncoveredMeasure(boxes, n, d);
    EXPECT_DOUBLE_EQ(uncovered, static_cast<double>(expected.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TetrisProperty,
    ::testing::Values(BcpCase{1, 5, 10, 1}, BcpCase{2, 3, 8, 2},
                      BcpCase{2, 4, 20, 3}, BcpCase{3, 2, 10, 4},
                      BcpCase{3, 3, 25, 5}, BcpCase{4, 2, 15, 6},
                      BcpCase{2, 4, 3, 7}, BcpCase{3, 3, 60, 8}));

}  // namespace
}  // namespace tetris
