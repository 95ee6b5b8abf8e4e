// Gaussian-mixture selectivity model — the paper's §6 future-work
// direction ("developing an algorithm that computes a Gaussian mixture
// (or another model) with a small loss given a training sample"),
// realized within the same generic bucket-design / weight-estimation
// recipe of §3.1:
//
//  * bucket design: sample candidate points from training-range interiors
//    (as PtsHist does), run k-means for component means, set diagonal
//    stddevs from cluster spread;
//  * weight estimation: the Eq. (8) QP over the matrix of per-component
//    truncated masses inside each training range.
//
// Component masses are EXACT for orthogonal ranges (products of normal
// CDFs) and exact for the linear functional of halfspaces; ball and
// semi-algebraic ranges use deterministic Gaussian-QMC (Halton points
// mapped through the normal quantile). Masses are renormalized by each
// component's mass inside the [0,1]^d domain (truncated mixture), so the
// model is a genuine distribution over the data domain — unlike
// histograms it has unbounded support before truncation, which is
// exactly the §6 motivation.
#ifndef SEL_CORE_GMM_H_
#define SEL_CORE_GMM_H_

#include <vector>

#include "core/model.h"

namespace sel {

/// Tunables for the Gaussian-mixture model.
struct GmmOptions {
  /// Number of mixture components; 0 means max(8, train_size / 4).
  int num_components = 0;
  /// Lloyd iterations for the k-means component placement.
  int kmeans_iterations = 25;
  /// Candidate interior points sampled per component.
  int candidates_per_component = 24;
  /// Floor on per-dimension component stddev (avoids degenerate spikes).
  double min_stddev = 0.02;
  /// QMC points for ball/semi-algebraic component masses.
  int qmc_samples = 2048;
  /// RNG seed (sampling + k-means init).
  uint64_t seed = 20220613;
  TrainObjective objective = TrainObjective::kL2;
  SimplexLsqOptions solver;
  LpOptions lp;
};

/// A diagonal-covariance Gaussian mixture over [0,1]^d, trained from
/// query feedback only.
class GmmModel : public SelectivityModel {
 public:
  GmmModel(int domain_dim, const GmmOptions& options);

  /// Reconstructs a fitted mixture from saved parameters (no training);
  /// used by model deserialization. Weights should lie on the simplex.
  static GmmModel FromParameters(std::vector<Point> means,
                                 std::vector<Point> stddevs, Vector weights,
                                 const GmmOptions& options = {});

  Status Train(const Workload& workload) override;
  double Estimate(const Query& query) const override;
  size_t NumBuckets() const override { return means_.size(); }
  std::string Name() const override { return "GMM"; }

  /// Non-lowerable: Gaussian component masses are not finite unions of
  /// Eq. (6)/(7) buckets. It keeps its own Estimate.
  Result<CompiledPlan> Compile() const override {
    return Status::Unimplemented(
        "GMM is non-lowerable: component masses have no flat bucket form");
  }

  /// Component means after training.
  const std::vector<Point>& Means() const { return means_; }
  /// Per-dimension component standard deviations.
  const std::vector<Point>& Stddevs() const { return stddevs_; }
  /// Mixture weights on the simplex.
  const Vector& Weights() const { return weights_; }

  /// Mass of component k inside `query` ∩ domain, normalized by the
  /// component's mass in the domain. Exposed for tests.
  double ComponentMass(int k, const Query& query) const;

 private:
  double BoxMassRaw(int k, const Box& box) const;
  double QmcMassRaw(int k, const Query& query) const;

  int dim_;
  GmmOptions options_;
  std::vector<Point> means_;
  std::vector<Point> stddevs_;
  Vector domain_mass_;  // per-component mass inside [0,1]^d
  Vector weights_;
  bool trained_ = false;
};

}  // namespace sel

#endif  // SEL_CORE_GMM_H_
