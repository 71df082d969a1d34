// Join evaluation through the box cover problem (paper, Proposition 3.6):
// on input B(Q) — the union of the relations' index gap boxes embedded
// into the output space — the BCP output *is* the join output.
//
// RelationOracle is the live view: probing a candidate tuple projects it
// onto every atom and asks that atom's index for the gaps around it; an
// all-indices miss certifies an output tuple. Tetris-Preloaded instead
// enumerates all gaps up front (AllGaps).
#ifndef TETRIS_ENGINE_JOIN_RUNNER_H_
#define TETRIS_ENGINE_JOIN_RUNNER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "engine/balance.h"
#include "engine/tetris.h"
#include "index/index.h"
#include "query/join_query.h"

namespace tetris {

/// Oracle over the gap boxes of a query's indexed relations.
class RelationOracle : public BoxOracle {
 public:
  /// `indexes[i]` indexes `query.atoms()[i].rel` (arity must match).
  /// All pointers must outlive the oracle.
  RelationOracle(const JoinQuery* query,
                 std::vector<const Index*> indexes, int depth);

  int dims() const override { return query_->num_attrs(); }

  void Probe(const DyadicBox& point,
             std::vector<DyadicBox>* out) const override;

  bool EnumerateAll(std::vector<DyadicBox>* out) const override;

  /// Pruned per-atom enumeration: projects `box` onto each atom's columns
  /// and asks the index for only the gaps meeting that projection. The
  /// embedded gaps are universal on the other attributes, so they
  /// intersect `box` iff their atom-local part meets the projection —
  /// exactly the filtered EnumerateAll set.
  bool EnumerateIntersecting(const DyadicBox& box,
                             std::vector<DyadicBox>* out) const override;

  /// Total number of gap boxes across all indexes (|B(Q)|), by a fresh
  /// enumeration.
  size_t CountAllGaps() const;

  /// |B(Q)| as counted by the last EnumerateAll (0 before the first):
  /// what a preloaded run reports without enumerating B(Q) again.
  size_t enumerated_gaps() const {
    return enumerated_gaps_.load(std::memory_order_relaxed);
  }

 private:
  // Embeds a k-dim box over atom `a`'s columns into the n-dim query space.
  DyadicBox Embed(const Atom& a, const DyadicBox& rel_box) const;

  const JoinQuery* query_;
  std::vector<const Index*> indexes_;
  int d_;
  mutable std::atomic<size_t> enumerated_gaps_{0};
};

/// Which engine configuration evaluates the join.
enum class JoinAlgorithm {
  kTetrisPreloaded,         ///< A := B(Q) (worst-case bounds, §4.3)
  kTetrisReloaded,          ///< A := ∅, lazy loading (certificate bounds, §4.4)
  kTetrisPreloadedNoCache,  ///< tree-ordered resolution (Thm 5.1)
  kTetrisPreloadedLB,       ///< Balance lift, offline (§4.5, Alg 3)
  kTetrisReloadedLB,        ///< Balance lift, online (§F.6)
};

/// Result of a join evaluation.
struct JoinRunResult {
  /// The output tuples in the engine's emission order (not sorted), as
  /// one flat arity-strided buffer over the query attributes.
  Relation output{"output", {}};
  TetrisStats stats;
  int64_t oracle_probes = 0;
  size_t input_gap_boxes = 0;  ///< |B(Q)| (preloaded variants only)
  size_t index_bytes = 0;      ///< resident bytes of the per-atom indexes
};

/// Evaluates `query` with Tetris. `indexes[i]` serves atom i; `sao` is an
/// attribute-id permutation (empty = variant-appropriate default: reverse
/// GYO for preloaded on acyclic queries, min-width elimination otherwise).
JoinRunResult RunTetrisJoin(const JoinQuery& query,
                            const std::vector<const Index*>& indexes,
                            int depth, JoinAlgorithm algo,
                            std::vector<int> sao = {});

/// Owns a default index per atom (a SortedIndex in relation column order,
/// at query.MinDepth()) and runs the join: RunTetrisJoin with no index
/// choices to make.
JoinRunResult RunTetrisJoinDefaultIndexes(const JoinQuery& query,
                                          JoinAlgorithm algo);

/// The trie column order an atom's index needs to be σ-consistent: the
/// atom's columns sorted by their attributes' SAO positions
/// (`sao_pos[attr]` = position of `attr` in the SAO).
std::vector<int> SaoColumnOrder(const Atom& atom,
                                const std::vector<int>& sao_pos);

/// Builds one SortedIndex per atom whose column order follows `sao`
/// (SaoColumnOrder; the σ-consistency precondition of Theorems D.2 /
/// D.8 / 4.6).
std::vector<std::unique_ptr<Index>> MakeSaoConsistentIndexes(
    const JoinQuery& query, const std::vector<int>& sao, int depth);

/// Non-owning view of an index vector.
std::vector<const Index*> IndexPtrs(
    const std::vector<std::unique_ptr<Index>>& owned);

}  // namespace tetris

#endif  // TETRIS_ENGINE_JOIN_RUNNER_H_
