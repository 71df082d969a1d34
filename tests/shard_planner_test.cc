// The dyadic-prefix shard planner: shard boxes must partition the output
// space, restricted relations must exactly cover the originals, and the
// adaptive split must respect (or honestly report) the memory budget —
// including the edge cases that could hang or lie: shard counts beyond
// the domain, budgets below a single tuple, and empty shards.
#include "engine/shard_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "index/sorted_index.h"
#include "workload/generators.h"

namespace tetris {
namespace {

// Sums, per atom, the restricted tuple multisets across all shards and
// compares with the original relation: every tuple must land in at least
// one shard, and tuples fully constrained by the shard boxes land in
// exactly one. Exercises the lazy path: shards own no tuples until
// MaterializeShard copies them.
void ExpectShardsCoverAtoms(const QueryInstance& q, const ShardPlan& plan) {
  for (size_t a = 0; a < q.query.atoms().size(); ++a) {
    std::set<Tuple> seen;
    for (const Shard& shard : plan.shards) {
      MaterializedShard ms = MaterializeShard(q.query, plan, shard.id);
      for (TupleRef t : ms.query.atoms()[a].rel->rows()) {
        seen.insert(t.ToTuple());
      }
    }
    const Relation& original = *q.query.atoms()[a].rel;
    EXPECT_EQ(seen.size(), original.size());
    for (TupleRef t : original.rows()) EXPECT_TRUE(seen.count(t.ToTuple()));
  }
}

TEST(ShardPlannerTest, DefaultPlanIsOneUniversalShard) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/1);
  ShardPlan plan = PlanShards(q.query, {});
  EXPECT_EQ(plan.split_bits, 0);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].box, DyadicBox::Universal(q.query.num_attrs()));
  EXPECT_TRUE(plan.budget_ok);
  EXPECT_TRUE(plan.note.empty());
  // The one shard is the whole input: no row is bucketed, and the
  // payload estimate still counts every row.
  EXPECT_TRUE(plan.buckets.empty());
  EXPECT_EQ(plan.PlanningBytes(), sizeof(Shard));
  size_t payload = 0;
  for (size_t a = 0; a < q.query.atoms().size(); ++a) {
    EXPECT_EQ(plan.AtomRows(0, a), nullptr);
    const Relation& rel = *q.query.atoms()[a].rel;
    payload += EstimateAtomBytes(rel.size(), rel.arity());
  }
  EXPECT_EQ(plan.shards[0].payload_bytes, payload);
  EXPECT_FALSE(plan.shards[0].empty);
  MaterializedShard ms = MaterializeShard(q.query, plan, 0);
  for (size_t a = 0; a < q.query.atoms().size(); ++a) {
    EXPECT_EQ(ms.query.atoms()[a].rel->raw(),
              q.query.atoms()[a].rel->raw());
  }
}

TEST(ShardPlannerTest, ExplicitShardsAreDisjointAndCoverTheData) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/2);
  ShardPlanOptions opts;
  opts.shards = 4;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.split_bits, 2);
  ASSERT_EQ(plan.shards.size(), 4u);
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    EXPECT_EQ(plan.shards[i].id, static_cast<int>(i));
    for (size_t j = i + 1; j < plan.shards.size(); ++j) {
      EXPECT_FALSE(plan.shards[i].box.Intersects(plan.shards[j].box))
          << "shards " << i << " and " << j << " overlap";
    }
  }
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, ShardCountRoundsUpToAPowerOfTwo) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/20, /*d=*/4,
                                   /*seed=*/3);
  ShardPlanOptions opts;
  opts.shards = 3;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.shards.size(), 4u);
}

TEST(ShardPlannerTest, ShardCountBeyondTheDomainClampsWithNote) {
  // d = 1 over three attributes: the whole domain has 3 prefix bits, so
  // at most 8 shards exist no matter what the caller asks for.
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/4, /*d=*/1,
                                   /*seed=*/4);
  ASSERT_EQ(q.depth, 1);
  ShardPlanOptions opts;
  opts.shards = 64;
  opts.max_split_bits = 16;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.shards.size(), 8u);
  EXPECT_FALSE(plan.note.empty());
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, BudgetGrowsTheSplitUntilShardsFit) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/5,
                                   /*seed=*/5);
  // Unsharded estimate first, then demand roughly a quarter of it.
  ShardPlan coarse = PlanShards(q.query, {});
  ASSERT_GT(coarse.max_estimated_peak_bytes, 0u);
  ShardPlanOptions opts;
  opts.shards = -1;
  opts.memory_budget_bytes = coarse.max_estimated_peak_bytes / 4;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_TRUE(plan.budget_ok) << plan.note;
  EXPECT_GE(plan.split_bits, 1);
  for (const Shard& shard : plan.shards) {
    EXPECT_LE(shard.estimated_peak_bytes, opts.memory_budget_bytes);
  }
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, ImpossibleBudgetReportsInsteadOfHanging) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/6);
  ShardPlanOptions opts;
  opts.shards = -1;
  opts.memory_budget_bytes = 1;  // below a single tuple's payload
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_FALSE(plan.budget_ok);
  EXPECT_FALSE(plan.note.empty());
  EXPECT_GT(plan.max_estimated_peak_bytes, opts.memory_budget_bytes);
  // The plan still exists and still covers the data.
  EXPECT_FALSE(plan.shards.empty());
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, AutoModePlansOneShardPerThread) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/7);
  ShardPlanOptions opts;
  opts.shards = -1;
  opts.threads_hint = 4;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.shards.size(), 4u);
}

TEST(ShardPlannerTest, ShardsWithNoDataAreFlaggedEmpty) {
  // All values below 2^(d-1): every shard whose first split bit is 1 on
  // any dimension restricts some atom to the empty relation.
  Relation r = Relation::Make("R", {"A", "B"},
                              {{0, 1}, {1, 2}, {2, 3}});
  Relation s = Relation::Make("S", {"B", "C"},
                              {{1, 0}, {2, 1}, {3, 2}});
  JoinQuery q = JoinQuery::Build({&r, &s});
  ShardPlanOptions opts;
  opts.shards = 8;
  opts.depth = 3;  // values < 4 = 2^(depth-1): top halves are empty
  ShardPlan plan = PlanShards(q, opts);
  ASSERT_EQ(plan.shards.size(), 8u);
  size_t empty = 0;
  for (const Shard& shard : plan.shards) {
    if (shard.empty) ++empty;
  }
  EXPECT_GT(empty, 0u);
  // Shard 0 (all-zero prefixes) keeps data.
  EXPECT_FALSE(plan.shards[0].empty);
}

TEST(ShardPlannerTest, EstimateBoundsSortedIndexFootprint) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/25, /*d=*/4,
                                   /*seed=*/8);
  const Atom& atom = q.query.atoms()[0];
  SortedIndex index(*atom.rel, q.depth);
  // The estimate is the shard's row-payload proxy (rows·arity·8); the
  // permutation-view index costs rows·4 on top of the shared buffer, so
  // the estimate strictly upper-bounds index residency at arity >= 1.
  EXPECT_EQ(index.MemoryBytes(), atom.rel->size() * sizeof(uint32_t));
  EXPECT_GT(EstimateAtomBytes(atom.rel->size(),
                              static_cast<int>(atom.var_ids.size())),
            index.MemoryBytes());
}

TEST(ShardPlannerTest, RestrictedQueriesKeepAttributeIds) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/9);
  ShardPlanOptions opts;
  opts.shards = 2;
  ShardPlan plan = PlanShards(q.query, opts);
  for (const Shard& shard : plan.shards) {
    MaterializedShard ms = MaterializeShard(q.query, plan, shard.id);
    ASSERT_EQ(ms.query.attrs(), q.query.attrs());
    for (size_t a = 0; a < q.query.atoms().size(); ++a) {
      EXPECT_EQ(ms.query.atoms()[a].var_ids,
                q.query.atoms()[a].var_ids);
    }
  }
}

TEST(ShardPlannerTest, PlanningBytesStayFlatAsTheSplitGrows) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/80, /*d=*/5,
                                   /*seed=*/22);
  // The coarsest bucketed plan: a single-shard plan buckets nothing.
  ShardPlanOptions two;
  two.shards = 2;
  const size_t base = PlanShards(q.query, two).PlanningBytes();
  ShardPlanOptions many;
  many.shards = 64;
  const size_t fine = PlanShards(q.query, many).PlanningBytes();
  // The old materializing planner copied every atom into its shards, so
  // its residency scaled with the split; bucket row lists stay within a
  // small constant (the per-shard Shard structs) of the 2-shard plan no
  // matter how fine the split.
  EXPECT_LT(fine, 2 * base + 64 * sizeof(Shard) + 1024);
}

}  // namespace
}  // namespace tetris
