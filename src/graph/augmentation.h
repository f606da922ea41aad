// Alternating paths / cycles and augmentations (Definitions 4.2 - 4.5).
//
// An Augmentation is an alternating path or cycle C with respect to a
// matching M. Its matching neighborhood C_M (Definition 4.3) is the set of
// M-edges incident to C's vertices, including those on C. Applying C
// (Definition 4.4) removes C_M from M and adds C \ M; the gain w+(C)
// (Definition 4.5) is the resulting change in matching weight.
#pragma once

#include <vector>

#include "graph/matching.h"
#include "graph/types.h"

namespace wmatch {

struct Augmentation {
  /// Edges in path order (for a cycle, consecutive edges share endpoints
  /// and the last edge closes back to the first vertex).
  std::vector<Edge> edges;
  bool is_cycle = false;

  /// Distinct vertices on C, in traversal order.
  std::vector<Vertex> vertices() const;

  /// True iff `edges` forms a simple path / cycle whose edges alternate
  /// between M and non-M (Definition 4.2).
  bool is_valid_alternating(const Matching& m) const;

  /// C_M: the matched edges incident to C's vertices, each reported once,
  /// in the order their first endpoint occurs along vertices(). A linear
  /// scan drops the repeats, so the cost is quadratic in |C|; every caller
  /// passes short augmentations.
  std::vector<Edge> matching_neighborhood(const Matching& m) const;

  /// w+(C) = w(C \ M) - w(C_M). Does not modify m.
  Weight gain(const Matching& m) const;

  /// Removes C_M from m and adds C \ M. Returns the realized weight change
  /// (equal to gain() computed beforehand).
  Weight apply(Matching& m) const;

  /// All vertices whose matched status can change when C is applied:
  /// vertices of C plus endpoints of C_M, ascending and duplicate-free.
  /// Used for conflict detection in the greedy selection steps of
  /// Algorithms 1 and 3.
  std::vector<Vertex> touched_vertices(const Matching& m) const;
};

/// Decomposes the symmetric difference M △ N of two matchings into its
/// connected components, each an alternating path or even cycle. Edges of
/// the component sequences carry the weights recorded in the respective
/// matching. The result is the structural object behind Fact 1.3,
/// Lemma 3.2 and Lemma 4.9.
std::vector<Augmentation> symmetric_difference_components(const Matching& m,
                                                          const Matching& n);

/// Greedily selects a maximal subfamily of pairwise non-conflicting
/// augmentations in the given order (two augmentations conflict when their
/// touched vertex sets intersect). Returns indices into `augs`. Marks the
/// used vertices in a table of m.num_vertices() bytes.
std::vector<std::size_t> select_disjoint(
    const std::vector<Augmentation>& augs, const Matching& m);

}  // namespace wmatch
