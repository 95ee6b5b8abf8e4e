// QuadHist (§3.2, Algorithms 1–2): a quadtree-guided histogram.
//
// Bucket design: starting from one bucket spanning the data domain,
// process each training pair (R, s); any leaf u with
//   vol(u ∩ R)/vol(R) * s > tau
// is split into 2^d equal children, recursively. Buckets are the final
// leaves. The partition is independent of the processing order
// (Lemma A.1), and the number of nodes visited per query is
// O((s/tau) log(s/(tau vol(R)))) (Lemma A.2).
//
// Weight estimation: Eq. (8) via the simplex-constrained least-squares
// solver (or the Chebyshev LP when trained with the L∞ objective, §4.6).
#ifndef SEL_CORE_QUADHIST_H_
#define SEL_CORE_QUADHIST_H_

#include <cstdint>
#include <vector>

#include "core/model.h"

namespace sel {

/// Tunables for QuadHist.
struct QuadHistOptions {
  /// Density-split threshold tau of Algorithm 2.
  double tau = 0.01;
  /// Hard cap on the number of leaves ("we can control the model size k
  /// by ... adding a hard termination condition", §3.2). 0 = unlimited.
  size_t max_leaves = 0;
  /// Depth cap (each level halves every side).
  int max_depth = 20;
  /// L2 (Eq. 8) or L∞ (§4.6) training objective.
  TrainObjective objective = TrainObjective::kL2;
  /// Weight-solver options for the L2 objective.
  SimplexLsqOptions solver;
  /// LP options for the L∞ objective.
  LpOptions lp;
  /// Volume kernels (QMC budget for ball ranges in d >= 3).
  VolumeOptions volume;
};

/// The QuadHist model. Works for any query type; intended for low d
/// (splits create 2^d children).
class QuadHist : public SelectivityModel {
 public:
  /// `domain_dim` is the data dimensionality (domain is [0,1]^d).
  QuadHist(int domain_dim, const QuadHistOptions& options);

  Status Train(const Workload& workload) override;
  size_t NumBuckets() const override { return num_leaves_; }
  std::string Name() const override { return "QuadHist"; }

  /// Lowers the trained quadtree to Eq. (6) box entries (the leaves).
  Result<CompiledPlan> Compile() const override;

  /// Total Algorithm-2 node visits across training (Lemma A.2 accounting).
  size_t total_refine_visits() const { return refine_visits_; }

  /// The bucket boxes (final quadtree leaves), in node order.
  std::vector<Box> LeafBoxes() const;

  /// The learned weight of each leaf, aligned with LeafBoxes().
  Vector LeafWeights() const;

  const QuadHistOptions& options() const { return options_; }

 private:
  struct Node {
    Box box;
    int32_t first_child = -1;  // 2^d contiguous children; -1 for a leaf
    int16_t depth = 0;
    double weight = 0.0;  // leaf weight after training
  };

  bool IsLeaf(int32_t u) const { return nodes_[u].first_child < 0; }
  void Split(int32_t u);
  void Refine(int32_t u, const Query& query, double query_volume,
              double selectivity);
  void CollectRow(int32_t u, const Query& query,
                  std::vector<std::pair<int, double>>* row,
                  const std::vector<int32_t>& leaf_index) const;

  int dim_;
  QuadHistOptions options_;
  std::vector<Node> nodes_;
  size_t num_leaves_ = 0;
  size_t refine_visits_ = 0;
  bool trained_ = false;
};

}  // namespace sel

#endif  // SEL_CORE_QUADHIST_H_
