// The classic data-driven baseline: per-attribute 1-D equi-width
// histograms combined under the attribute-value-independence (AVI)
// assumption — what traditional cost-based optimizers ship (§1: 1-D
// range selectivity is "the bread and butter" of optimizers; the AVI
// assumption is why they mis-estimate correlated predicates, the gap
// that motivates learned estimators).
//
// Unlike the paper's learners this model reads the DATA, not the
// workload; it exists as the motivating comparison point, not as a
// contender within the paper's workload-only comparison class.
#ifndef SEL_BASELINES_AVI_H_
#define SEL_BASELINES_AVI_H_

#include <vector>

#include "common/status.h"
#include "core/model.h"
#include "data/dataset.h"

namespace sel {

/// Options for the AVI histogram baseline.
struct AviOptions {
  /// Bins per attribute (equi-width over [0,1]).
  int bins_per_dim = 64;
  /// QMC samples used for non-box queries (drawn from the product
  /// distribution the model represents).
  int qmc_samples = 4096;
};

/// Product-of-marginals estimator built from a dataset scan.
class AviHistogram : public SelectivityModel {
 public:
  /// Builds the marginal histograms directly from `data`.
  AviHistogram(const Dataset& data, const AviOptions& options);

  /// Builds with uniform marginals (the optimizer's no-statistics
  /// state); call FitFromData to install real statistics.
  AviHistogram(int dim, const AviOptions& options);

  /// Recomputes the marginal histograms from a dataset scan (ANALYZE).
  Status FitFromData(const Dataset& data);

  /// Unsupported: AVI is data-driven, not workload-driven. Returns an
  /// error to keep the two training regimes from being confused.
  Status Train(const Workload& workload) override;

  /// Boxes: exact product of marginal masses. Halfspaces/balls/semi-
  /// algebraic: deterministic QMC from the product distribution.
  double Estimate(const Query& query) const override;

  size_t NumBuckets() const override {
    return marginals_.size() * marginals_[0].size();
  }
  std::string Name() const override { return "AVI"; }

  /// Non-lowerable: the product-of-marginals estimate multiplies
  /// per-dimension masses, which no flat Eq. (6)/(7) bucket sum
  /// reproduces. It keeps its own Estimate.
  Result<CompiledPlan> Compile() const override {
    return Status::Unimplemented(
        "AVI is non-lowerable: product form has no flat bucket sum");
  }

  /// Marginal mass of [lo, hi] in dimension `j` (exposed for tests).
  double MarginalMass(int j, double lo, double hi) const;

 private:
  /// Inverse CDF of marginal j at u in [0,1) (piecewise linear).
  double MarginalQuantile(int j, double u) const;

  int dim_;
  AviOptions options_;
  std::vector<std::vector<double>> marginals_;  // per-dim bin masses
};

}  // namespace sel

#endif  // SEL_BASELINES_AVI_H_
