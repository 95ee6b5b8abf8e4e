#include "core/arrangement.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/timer.h"

namespace sel {

namespace {

// Per-dimension facet coordinates of a range, clipped to [0,1].
void AppendBreakpoints(const Query& q, int dim,
                       std::vector<std::vector<double>>* breaks) {
  const Box domain = Box::Unit(dim);
  const Box bbox = q.BoundingBox(domain);
  for (int j = 0; j < dim; ++j) {
    (*breaks)[j].push_back(bbox.lo(j));
    (*breaks)[j].push_back(bbox.hi(j));
  }
  if (q.type() == QueryType::kHalfspace && dim == 1) {
    // In 1-D the boundary point b/a is the exact facet.
    const Halfspace& h = q.halfspace();
    const double x = h.offset() / h.normal()[0];
    if (x >= 0.0 && x <= 1.0) (*breaks)[0].push_back(x);
  }
}

}  // namespace

ArrangementLearner::ArrangementLearner(int domain_dim,
                                       const ArrangementOptions& options)
    : dim_(domain_dim), options_(options) {
  SEL_CHECK(domain_dim >= 1);
}

Status ArrangementLearner::Train(const Workload& workload) {
  if (trained_) {
    return Status::FailedPrecondition("ArrangementLearner::Train twice");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("ArrangementLearner: empty workload");
  }
  for (const auto& z : workload) {
    if (z.query.dim() != dim_) {
      return Status::InvalidArgument(
          "ArrangementLearner: query dimension mismatch");
    }
  }
  WallTimer timer;

  // ---- Bucket design: the facet-induced grid. ----
  std::vector<std::vector<double>> breaks(dim_);
  for (int j = 0; j < dim_; ++j) breaks[j] = {0.0, 1.0};
  for (const auto& z : workload) {
    AppendBreakpoints(z.query, dim_, &breaks);
  }
  size_t cell_count = 1;
  for (int j = 0; j < dim_; ++j) {
    auto& b = breaks[j];
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end(),
                        [](double x, double y) {
                          return std::abs(x - y) < 1e-12;
                        }),
            b.end());
    SEL_CHECK(b.size() >= 2);
    cell_count *= b.size() - 1;
    if (cell_count > options_.max_cells) {
      return Status::OutOfRange(
          "ArrangementLearner: facet grid exceeds max_cells; "
          "reduce the training size or raise the cap");
    }
  }

  cells_.clear();
  cells_.reserve(cell_count);
  std::vector<size_t> idx(dim_, 0);
  while (true) {
    Point lo(dim_), hi(dim_);
    for (int j = 0; j < dim_; ++j) {
      lo[j] = breaks[j][idx[j]];
      hi[j] = breaks[j][idx[j] + 1];
    }
    cells_.emplace_back(std::move(lo), std::move(hi));
    int j = 0;
    for (; j < dim_; ++j) {
      if (++idx[j] < breaks[j].size() - 1) break;
      idx[j] = 0;
    }
    if (j == dim_) break;
  }
  SEL_CHECK(cells_.size() == cell_count);

  if (options_.mode == ArrangementOptions::Mode::kDiscrete) {
    cell_points_.clear();
    cell_points_.reserve(cells_.size());
    for (const auto& c : cells_) cell_points_.push_back(c.Center());
  }

  // ---- Weight estimation. ----
  SparseMatrix a =
      options_.mode == ArrangementOptions::Mode::kHistogram
          ? BuildBoxFractionMatrix(workload, cells_, options_.volume)
          : BuildPointIndicatorMatrix(workload, cell_points_);
  const Vector s = SelectivitiesOf(workload);
  auto weights = SolveBucketWeights(a, s, options_.objective,
                                    options_.solver, options_.lp,
                                    &train_stats_);
  if (!weights.ok()) return weights.status();
  weights_ = std::move(weights.value());

  trained_ = true;
  train_stats_.train_seconds = timer.Seconds();
  return StorePlan();
}

size_t ArrangementLearner::NumBuckets() const { return cells_.size(); }

Result<CompiledPlan> ArrangementLearner::Compile() const {
  if (!trained_) {
    return Status::FailedPrecondition(
        "ArrangementLearner::Compile before Train");
  }
  if (options_.mode == ArrangementOptions::Mode::kHistogram) {
    return CompiledPlan::FromBoxBuckets(cells_, weights_, options_.volume,
                                        RegistryName());
  }
  return CompiledPlan::FromPointBuckets(cell_points_, weights_,
                                        RegistryName());
}

}  // namespace sel
