// The generic learning procedure of §3.1: buckets are the cells of the
// arrangement of the training ranges, and weight estimation is Eq. (8).
// Lemma 3.1: this minimizes the empirical loss over *all* histograms
// (resp. discrete distributions), because any competitor's mass can be
// redistributed cell-by-cell without changing any training selectivity.
//
// This implementation realizes the arrangement for interval ranges in 1-D
// exactly, and for orthogonal ranges in any dimension via the grid induced
// by all query facets (a refinement of the arrangement, which preserves
// the optimality argument). Ball/halfspace ranges in d >= 2 use their
// bounding-box facets — a practical approximation, not the true curved
// arrangement; exactness claims (and the Lemma 3.1 test) apply to boxes.
#ifndef SEL_CORE_ARRANGEMENT_H_
#define SEL_CORE_ARRANGEMENT_H_

#include <vector>

#include "core/model.h"

namespace sel {

/// Tunables for the arrangement learner.
struct ArrangementOptions {
  /// Histogram (Eq. 6) or discrete distribution (Eq. 7) over the cells.
  enum class Mode { kHistogram, kDiscrete };
  Mode mode = Mode::kHistogram;
  /// Hard cap on the number of cells; the grid has O((2n)^d) of them.
  size_t max_cells = 250000;
  TrainObjective objective = TrainObjective::kL2;
  SimplexLsqOptions solver;
  LpOptions lp;
  VolumeOptions volume;
};

/// The arrangement-based learner (optimal but training-set-sized model).
class ArrangementLearner : public SelectivityModel {
 public:
  ArrangementLearner(int domain_dim, const ArrangementOptions& options);

  Status Train(const Workload& workload) override;
  size_t NumBuckets() const override;
  std::string Name() const override { return "Arrangement"; }

  /// Lowers the cells to Eq. (6) box entries (histogram mode) or their
  /// centers to Eq. (7) point entries (discrete mode).
  Result<CompiledPlan> Compile() const override;

  /// The cell boxes after training (histogram mode).
  const std::vector<Box>& Cells() const { return cells_; }

 private:
  int dim_;
  ArrangementOptions options_;
  std::vector<Box> cells_;
  std::vector<Point> cell_points_;  // discrete mode
  Vector weights_;
  bool trained_ = false;
};

}  // namespace sel

#endif  // SEL_CORE_ARRANGEMENT_H_
