// ISOMER (Srivastava, Haas, Markl, Kutsch, Tran, ICDE 2006),
// reimplemented from the descriptions in the paper and in STHoles
// (Bruno, Chaudhuri, Gravano, SIGMOD 2001):
//
//  * Bucket creation follows STHoles: each training query drills
//    rectangular "holes" into the buckets it partially overlaps, growing
//    a tree of nested boxes whose effective regions (box minus children)
//    partition the domain.
//  * Bucket densities maximize entropy subject to consistency with every
//    observed query selectivity, fitted by multiplicative iterative
//    scaling over the constraint set.
//
// This matches the experimental profile the paper reports for ISOMER:
// the most accurate query-driven histogram, but with bucket counts
// 48–160x the training size and training times that stop scaling past a
// few hundred queries (§4.1 runs it only to n = 200).
#ifndef SEL_BASELINES_ISOMER_H_
#define SEL_BASELINES_ISOMER_H_

#include <vector>

#include "core/model.h"

namespace sel {

/// Tunables for the ISOMER reimplementation.
struct IsomerOptions {
  /// Hard cap on bucket count (drilling stops once reached).
  size_t max_buckets = 50000;
  /// Iterative-scaling sweeps for the max-entropy fit.
  int max_sweeps = 400;
  /// Stop when the worst absolute constraint violation drops below this.
  double tolerance = 1e-6;
  VolumeOptions volume;
};

/// The ISOMER baseline. Orthogonal range queries only.
class Isomer : public SelectivityModel {
 public:
  Isomer(int domain_dim, const IsomerOptions& options);

  Status Train(const Workload& workload) override;
  size_t NumBuckets() const override { return buckets_.size(); }
  std::string Name() const override { return "Isomer"; }

  /// Lowers the STHoles tree to Eq. (6) box entries by rectilinear
  /// disjointification: each bucket's effective region (box minus child
  /// holes) is cut into axis-aligned pieces carrying the bucket's
  /// density. Piece facets are exact copies of bucket/hole facets.
  Result<CompiledPlan> Compile() const override;

 private:
  struct Bucket {
    Box box;
    std::vector<int> children;
    double weight = 0.0;          // mass of the effective region
    double effective_volume = 0;  // vol(box) - sum child vol
  };

  void Drill(int b, const Box& range);
  void RecomputeEffectiveVolumes();
  /// Fraction of bucket b's effective region covered by `range` (in [0,1]).
  double EffectiveFraction(int b, const Box& range) const;

  int dim_;
  IsomerOptions options_;
  std::vector<Bucket> buckets_;
  bool trained_ = false;
};

}  // namespace sel

#endif  // SEL_BASELINES_ISOMER_H_
