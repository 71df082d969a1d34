#include "relation/relation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "relation/relation_view.h"
#include "util/rng.h"

namespace tetris {
namespace {

TEST(Relation, MakeCanonicalizes) {
  Relation r = Relation::Make("R", {"A", "B"},
                              {{3, 1}, {1, 3}, {3, 1}, {0, 0}});
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.row(0).ToTuple(), (Tuple{0, 0}));
  EXPECT_EQ(r.row(1).ToTuple(), (Tuple{1, 3}));
  EXPECT_EQ(r.row(2).ToTuple(), (Tuple{3, 1}));
}

TEST(Relation, ContainsUsesBinarySearch) {
  Relation r = Relation::Make("R", {"A", "B"}, {{1, 2}, {3, 4}});
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_TRUE(r.Contains({3, 4}));
  EXPECT_FALSE(r.Contains({1, 4}));
  EXPECT_FALSE(r.Contains({0, 0}));
}

TEST(Relation, AttrIndex) {
  Relation r("S", {"B", "C", "A"});
  EXPECT_EQ(r.AttrIndex("B"), 0);
  EXPECT_EQ(r.AttrIndex("C"), 1);
  EXPECT_EQ(r.AttrIndex("A"), 2);
  EXPECT_EQ(r.AttrIndex("Z"), -1);
}

TEST(Relation, MaxValue) {
  Relation r = Relation::Make("R", {"A"}, {{5}, {17}, {2}});
  EXPECT_EQ(r.MaxValue(), 17u);
  Relation empty("E", {"A"});
  EXPECT_EQ(empty.MaxValue(), 0u);
}

TEST(Relation, IncrementalAddThenCanonicalize) {
  Relation r("R", {"A", "B"});
  r.Add({2, 2});
  r.Add({1, 1});
  r.Add({2, 2});
  r.Canonicalize();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 1}));
}

TEST(Relation, FlatBufferIsRowMajorStrided) {
  Relation r = Relation::Make("R", {"A", "B", "C"}, {{1, 2, 3}, {4, 5, 6}});
  ASSERT_EQ(r.raw().size(), 6u);
  EXPECT_EQ(r.raw(), (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(r.row(1)[0], 4u);
  EXPECT_EQ(r.row(1).data(), r.raw().data() + 3);
}

TEST(Relation, RowsRangeAndToTuplesRoundTrip) {
  std::vector<Tuple> in = {{2, 9}, {1, 1}, {7, 0}};
  Relation r = Relation::Make("R", {"A", "B"}, in);
  std::sort(in.begin(), in.end());
  EXPECT_EQ(r.ToTuples(), in);
  size_t i = 0;
  for (TupleRef t : r.rows()) {
    EXPECT_EQ(t.ToTuple(), in[i]);
    ++i;
  }
  EXPECT_EQ(i, in.size());
}

TEST(Relation, TupleRefComparisons) {
  Relation r = Relation::Make("R", {"A", "B"}, {{1, 2}, {1, 3}});
  EXPECT_TRUE(r.row(0) < r.row(1));
  EXPECT_FALSE(r.row(1) < r.row(0));
  EXPECT_TRUE(r.row(0) == r.row(0));
  EXPECT_FALSE(r.row(0) == r.row(1));
  Tuple owned = r.row(1);  // implicit materialization
  EXPECT_EQ(owned, (Tuple{1, 3}));
}

// Differential: flat-buffer canonicalize/Contains against the obvious
// vector<Tuple> model on random multisets with duplicates.
TEST(Relation, RandomizedCanonicalizeMatchesTupleModel) {
  Rng rng(321);
  for (int round = 0; round < 30; ++round) {
    const int k = 1 + static_cast<int>(rng.Below(4));
    const size_t n = rng.Below(60);
    std::vector<Tuple> model;
    Relation r("R", std::vector<std::string>(k, "x"));
    for (size_t i = 0; i < n; ++i) {
      Tuple t(k);
      for (int c = 0; c < k; ++c) t[c] = rng.Below(8);  // force duplicates
      model.push_back(t);
      r.Add(t);
    }
    std::sort(model.begin(), model.end());
    model.erase(std::unique(model.begin(), model.end()), model.end());
    r.Canonicalize();
    EXPECT_EQ(r.ToTuples(), model);
    for (const Tuple& t : model) EXPECT_TRUE(r.Contains(t));
    Tuple probe(k, 9);  // outside the value range above
    EXPECT_FALSE(r.Contains(probe));
  }
}

// Randomized differential of the packed-key canonicalizer, through both
// entry points — flat rows (Relation::Canonicalize) and CanonicalizeTuples
// — against std::sort + std::unique. Rounds cover arity 0-4, empty input,
// heavy duplicates, inputs of a few to ~1000 rows, keys that
// pack into fewer than 64 bits (radix), exactly 64 bits and more (the
// comparison fallback), and mixed arities (CanonicalizeTuples only).
TEST(Relation, CanonicalizeTuplesMatchesSortUnique) {
  Rng rng(77);
  for (int round = 0; round < 400; ++round) {
    const int k = static_cast<int>(rng.Below(5));
    const int shape = round % 5;
    // Value width: tiny (many duplicates), packable, a key of exactly
    // 64 bits (k fields of 64/k bits when k divides 64), and wide.
    int width = 0;
    switch (shape) {
      case 0: width = 3; break;
      case 1: width = k == 0 ? 1 : static_cast<int>(63 / k); break;
      case 2: width = k == 0 ? 1 : (k == 3 ? 22 : 64 / k); break;
      default: width = 40 + static_cast<int>(rng.Below(25)); break;
    }
    const uint64_t mask = width >= 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << width) - 1;
    const size_t n = round % 7 == 0 ? 0 : rng.Below(round % 3 == 0 ? 600 : 70);
    const bool mixed = shape == 4 && round % 2 == 0;
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < n; ++i) {
      Tuple t(mixed ? rng.Below(5) : static_cast<uint64_t>(k));
      for (uint64_t& v : t) v = rng.Next() & mask;
      // Pin the top bit now and then so the key width is exact.
      if (!t.empty() && rng.Chance(0.2)) t[0] |= uint64_t{1} << (width - 1);
      tuples.push_back(t);
      if (rng.Chance(0.3)) tuples.push_back(t);  // duplicates
    }
    std::vector<Tuple> want = tuples;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());

    std::vector<Tuple> canon = tuples;
    CanonicalizeTuples(&canon);
    EXPECT_EQ(canon, want) << "round " << round;
    if (mixed) continue;
    Relation r("R", std::vector<std::string>(static_cast<size_t>(k), "x"));
    for (const Tuple& t : tuples) r.Add(t);
    r.Canonicalize();
    EXPECT_EQ(r.size(), want.size()) << "round " << round;
    std::vector<uint64_t> flat_want;
    for (const Tuple& t : want) flat_want.insert(flat_want.end(), t.begin(), t.end());
    EXPECT_EQ(r.raw(), flat_want) << "round " << round;
  }
  std::vector<Tuple> zeros(5, Tuple(3, 0));
  CanonicalizeTuples(&zeros);
  EXPECT_EQ(zeros, std::vector<Tuple>{Tuple(3, 0)});
  std::vector<Tuple> empties(4);
  CanonicalizeTuples(&empties);
  EXPECT_EQ(empties, std::vector<Tuple>(1));
}

TEST(RelationView, MaterializeGathersRowsFromFlatBase) {
  Relation base =
      Relation::Make("R", {"A", "B"}, {{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  std::vector<size_t> rows = {1, 3};
  RelationView view(&base, &rows);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.tuple(0).ToTuple(), (Tuple{2, 3}));
  Relation m = view.Materialize();
  EXPECT_EQ(m.ToTuples(), (std::vector<Tuple>{{2, 3}, {6, 7}}));
  EXPECT_EQ(view.PayloadBytes(), 2u * 2u * sizeof(uint64_t));
}

}  // namespace
}  // namespace tetris
