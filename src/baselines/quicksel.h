// QuickSel (Park, Zhong, Mozafari, SIGMOD 2020), reimplemented from the
// paper's description: the data distribution is modeled as a mixture of
// uniform distributions ("kernels", which can be viewed as overlapping
// histogram buckets), trained from the query workload alone by a
// constrained quadratic program. The paper compares against it for
// orthogonal range queries with #kernels = 4x the training size (§4.1).
//
// Kernel construction here: each training query box is a kernel; the
// remaining 3n kernels are nonempty pairwise intersections of training
// boxes (QuickSel's intersection-aware placement), padded with random
// sub-boxes of training queries. Weights minimize
// ||A w - s||^2 + ridge ||w||^2 over the simplex — the ridge realizes
// QuickSel's preference for maximally flat mixtures.
#ifndef SEL_BASELINES_QUICKSEL_H_
#define SEL_BASELINES_QUICKSEL_H_

#include <vector>

#include "core/model.h"

namespace sel {

/// Tunables for the QuickSel reimplementation.
struct QuickSelOptions {
  /// Kernel budget; 0 means 4x the training size (the paper's setting).
  size_t num_kernels = 0;
  /// Ridge coefficient (flatness regularization).
  double ridge = 1e-4;
  /// RNG seed for kernel padding.
  uint64_t seed = 36363;
  SimplexLsqOptions solver;
  VolumeOptions volume;
};

/// The QuickSel baseline. Orthogonal range queries only.
class QuickSel : public SelectivityModel {
 public:
  QuickSel(int domain_dim, const QuickSelOptions& options);

  Status Train(const Workload& workload) override;
  size_t NumBuckets() const override { return kernels_.size(); }
  std::string Name() const override { return "QuickSel"; }

  /// Lowers the trained mixture to Eq. (6) box entries (the kernels).
  Result<CompiledPlan> Compile() const override;

  /// The kernel boxes after training.
  const std::vector<Box>& Kernels() const { return kernels_; }

 private:
  int dim_;
  QuickSelOptions options_;
  std::vector<Box> kernels_;
  Vector weights_;
  bool trained_ = false;
};

}  // namespace sel

#endif  // SEL_BASELINES_QUICKSEL_H_
