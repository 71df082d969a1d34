#include "geometry/dyadic_box.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tetris {
namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}

TEST(DyadicBox, UniversalContainsEverything) {
  DyadicBox u = DyadicBox::Universal(3);
  DyadicBox p = DyadicBox::Point({1, 2, 3}, 4);
  EXPECT_TRUE(u.Contains(p));
  EXPECT_FALSE(p.Contains(u));
  EXPECT_TRUE(u.Contains(u));
  EXPECT_TRUE(u.Intersects(p));
}

TEST(DyadicBox, PointRoundTrip) {
  DyadicBox p = DyadicBox::Point({5, 0, 15}, 4);
  EXPECT_TRUE(p.IsUnitUniform(4));
  EXPECT_FALSE(p.IsUnitUniform(5));
  EXPECT_EQ(p.ToPoint(), (std::vector<uint64_t>{5, 0, 15}));
  EXPECT_TRUE(p.ContainsPoint({5, 0, 15}, 4));
  EXPECT_FALSE(p.ContainsPoint({5, 0, 14}, 4));
}

TEST(DyadicBox, SupportSkipsLambda) {
  DyadicBox b = DyadicBox::Of({Iv(0b0, 1), DyadicInterval::Lambda(),
                               Iv(0b11, 2)});
  EXPECT_EQ(b.Support(), (std::vector<int>{0, 2}));
  EXPECT_EQ(b.SupportMask(), 0b101u);
}

TEST(DyadicBox, ProjectionZeroesOtherDims) {
  DyadicBox b = DyadicBox::Of({Iv(0b0, 1), Iv(0b10, 2), Iv(0b11, 2)});
  DyadicBox pr = b.Project(0b011);
  EXPECT_EQ(pr[0], Iv(0b0, 1));
  EXPECT_EQ(pr[1], Iv(0b10, 2));
  EXPECT_TRUE(pr[2].IsLambda());
  EXPECT_TRUE(pr.Contains(b));
}

TEST(DyadicBox, VolumeAt) {
  DyadicBox b = DyadicBox::Of({Iv(0, 1), DyadicInterval::Lambda()});
  EXPECT_DOUBLE_EQ(b.VolumeAt(3), 4.0 * 8.0);
  EXPECT_DOUBLE_EQ(DyadicBox::Universal(2).VolumeAt(3), 64.0);
  EXPECT_DOUBLE_EQ(DyadicBox::Point({0, 0}, 3).VolumeAt(3), 1.0);
}

TEST(DyadicBox, OutputDerivedPropagatesThroughProject) {
  DyadicBox b = DyadicBox::Universal(2);
  b.set_output_derived(true);
  EXPECT_TRUE(b.Project(0b1).output_derived());
}

TEST(DyadicBox, EqualityAndHash) {
  DyadicBox a = DyadicBox::Of({Iv(0b01, 2), Iv(0b1, 1)});
  DyadicBox b = DyadicBox::Of({Iv(0b01, 2), Iv(0b1, 1)});
  DyadicBox c = DyadicBox::Of({Iv(0b01, 2), Iv(0b0, 1)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  DyadicBoxHash h;
  EXPECT_EQ(h(a), h(b));
}

TEST(DyadicBox, ToStringFormat) {
  DyadicBox b = DyadicBox::Of({Iv(0b10, 2), DyadicInterval::Lambda()});
  EXPECT_EQ(b.ToString(), "<10, λ>");
}

// The copy contract: copy and assignment carry exactly dims() components
// and the provenance bit, for every dimension count a box supports.
TEST(DyadicBox, CopyAndAssignmentCarryEveryDimensionCount) {
  Rng rng(11);
  for (int n = 1; n <= kMaxDims; ++n) {
    DyadicBox src = DyadicBox::Universal(n);
    for (int i = 0; i < n; ++i) {
      const int len = static_cast<int>(rng.Below(9));
      src[i] = Iv(rng.Below(uint64_t{1} << len), len);
    }
    src.set_output_derived(n % 2 == 0);
    const DyadicBox copied(src);
    DyadicBox assigned = DyadicBox::Universal(kMaxDims);
    assigned = src;
    const DyadicBox* results[] = {&copied, &assigned};
    for (const DyadicBox* b : results) {
      ASSERT_EQ(b->dims(), n);
      for (int i = 0; i < n; ++i) EXPECT_EQ((*b)[i], src[i]) << n << "/" << i;
      EXPECT_EQ(*b, src);
      EXPECT_EQ(b->output_derived(), src.output_derived());
      EXPECT_EQ(DyadicBoxHash{}(*b), DyadicBoxHash{}(src));
    }
  }
}

TEST(DyadicBox, ProvenanceSurvivesCopyBothWays) {
  DyadicBox tainted = DyadicBox::Of({Iv(0b1, 1), Iv(0b01, 2)});
  tainted.set_output_derived(true);
  DyadicBox copy = tainted;
  EXPECT_TRUE(copy.output_derived());
  DyadicBox clean = DyadicBox::Of({Iv(0b1, 1), Iv(0b01, 2)});
  copy = clean;  // assignment clears the bit too
  EXPECT_FALSE(copy.output_derived());
  EXPECT_EQ(copy, tainted);  // equality ignores provenance
}

// Assigning a small box over a full-width one leaves stale components in
// the slots past dims(); nothing may see them.
TEST(DyadicBox, ShrinkingAssignmentEqualsAFreshBox) {
  DyadicBox wide = DyadicBox::Universal(kMaxDims);
  for (int i = 0; i < kMaxDims; ++i) wide[i] = Iv(0b101, 3);
  const DyadicBox fresh = DyadicBox::Of({Iv(0b1, 1), DyadicInterval::Lambda(),
                                         Iv(0b10, 2)});
  wide = fresh;
  EXPECT_EQ(wide.dims(), 3);
  EXPECT_EQ(wide, fresh);
  EXPECT_EQ(DyadicBoxHash{}(wide), DyadicBoxHash{}(fresh));
  EXPECT_EQ(wide.ToString(), fresh.ToString());
  EXPECT_EQ(wide.SupportMask(), 0b101u);
  const DyadicBox inner = DyadicBox::Point({5, 6, 4}, 3);
  EXPECT_EQ(wide.Contains(inner), fresh.Contains(inner));
  EXPECT_TRUE(wide.Contains(inner));
  EXPECT_TRUE(wide.Contains(fresh) && fresh.Contains(wide));
  EXPECT_FALSE(wide.Contains(DyadicBox::Point({0, 6, 4}, 3)));
}

// Property: Contains(b) iff all points of b are points of a (checked by
// sampling corners and random interior points).
class BoxContainmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxContainmentProperty, ContainmentMatchesPointwise) {
  const int d = GetParam();
  Rng rng(7 * d + 1);
  for (int iter = 0; iter < 300; ++iter) {
    const int n = 1 + static_cast<int>(rng.Below(4));
    DyadicBox a = DyadicBox::Universal(n), b = DyadicBox::Universal(n);
    for (int i = 0; i < n; ++i) {
      int la = static_cast<int>(rng.Below(d + 1));
      int lb = static_cast<int>(rng.Below(d + 1));
      a[i] = {rng.Below(uint64_t{1} << la), static_cast<uint8_t>(la)};
      b[i] = {rng.Below(uint64_t{1} << lb), static_cast<uint8_t>(lb)};
    }
    // Sample points of b; if a.Contains(b), all must lie in a.
    bool all_in = true;
    for (int s = 0; s < 16; ++s) {
      std::vector<uint64_t> pt(n);
      for (int i = 0; i < n; ++i) {
        pt[i] = b[i].Low(d) + rng.Below(b[i].SizeAt(d));
      }
      if (!a.ContainsPoint(pt, d)) all_in = false;
      EXPECT_TRUE(b.ContainsPoint(pt, d));
    }
    if (a.Contains(b)) {
      EXPECT_TRUE(all_in) << a.ToString() << " ⊇ " << b.ToString();
    }
    // Low corner of b not in a => a cannot contain b.
    std::vector<uint64_t> low(n);
    for (int i = 0; i < n; ++i) low[i] = b[i].Low(d);
    if (!a.ContainsPoint(low, d)) {
      EXPECT_FALSE(a.Contains(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, BoxContainmentProperty,
                         ::testing::Values(1, 2, 4, 8, 20));

}  // namespace
}  // namespace tetris
