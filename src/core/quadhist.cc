#include "core/quadhist.h"

#include "common/check.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/estimator_registry.h"
#include "core/model_io.h"

namespace sel {

QuadHist::QuadHist(int domain_dim, const QuadHistOptions& options)
    : dim_(domain_dim), options_(options) {
  SEL_CHECK_MSG(domain_dim >= 1 && domain_dim <= 16,
                "QuadHist supports 1 <= d <= 16 (2^d-way splits)");
  SEL_CHECK(options_.tau > 0.0 && options_.tau < 1.0);
  nodes_.push_back(Node{Box::Unit(dim_), -1, 0, 0.0});
  num_leaves_ = 1;
}

void QuadHist::Split(int32_t u) {
  SEL_DCHECK(IsLeaf(u));
  const int32_t first = static_cast<int32_t>(nodes_.size());
  const uint32_t fanout = 1u << dim_;
  const Box parent = nodes_[u].box;  // copy: nodes_ may reallocate
  const int16_t depth = nodes_[u].depth;
  for (uint32_t mask = 0; mask < fanout; ++mask) {
    Point lo(dim_), hi(dim_);
    for (int j = 0; j < dim_; ++j) {
      const double mid = 0.5 * (parent.lo(j) + parent.hi(j));
      if (mask & (1u << j)) {
        lo[j] = mid;
        hi[j] = parent.hi(j);
      } else {
        lo[j] = parent.lo(j);
        hi[j] = mid;
      }
    }
    nodes_.push_back(Node{Box(std::move(lo), std::move(hi)), -1,
                          static_cast<int16_t>(depth + 1), 0.0});
  }
  nodes_[u].first_child = first;
  num_leaves_ += fanout - 1;
}

void QuadHist::Refine(int32_t u, const Query& query, double query_volume,
                      double selectivity) {
  ++refine_visits_;
  const double inter =
      QueryBoxIntersectionVolume(query, nodes_[u].box, options_.volume);
  const double density = inter / query_volume * selectivity;
  if (density <= options_.tau) return;
  if (IsLeaf(u)) {
    if (nodes_[u].depth >= options_.max_depth) return;
    const uint32_t fanout = 1u << dim_;
    if (options_.max_leaves > 0 &&
        num_leaves_ + fanout - 1 > options_.max_leaves) {
      return;
    }
    Split(u);
  }
  const int32_t first = nodes_[u].first_child;
  const uint32_t fanout = 1u << dim_;
  for (uint32_t c = 0; c < fanout; ++c) {
    Refine(first + static_cast<int32_t>(c), query, query_volume,
           selectivity);
  }
}

void QuadHist::CollectRow(int32_t u, const Query& query,
                          std::vector<std::pair<int, double>>* row,
                          const std::vector<int32_t>& leaf_index) const {
  if (query.DisjointFromBox(nodes_[u].box)) return;
  if (IsLeaf(u)) {
    const double f = QueryBoxFraction(query, nodes_[u].box, options_.volume);
    if (f > 0.0) row->emplace_back(leaf_index[u], f);
    return;
  }
  const int32_t first = nodes_[u].first_child;
  const uint32_t fanout = 1u << dim_;
  for (uint32_t c = 0; c < fanout; ++c) {
    CollectRow(first + static_cast<int32_t>(c), query, row, leaf_index);
  }
}

Status QuadHist::Train(const Workload& workload) {
  if (trained_) {
    return Status::FailedPrecondition("QuadHist::Train called twice");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("QuadHist: empty training workload");
  }
  for (const auto& z : workload) {
    if (z.query.dim() != dim_) {
      return Status::InvalidArgument(
          "QuadHist: query dimension does not match the model domain");
    }
    if (z.selectivity < 0.0 || z.selectivity > 1.0) {
      return Status::InvalidArgument(
          "QuadHist: selectivity labels must lie in [0,1]");
    }
  }
  WallTimer timer;

  // ---- Bucket design (Algorithm 1). ----
  // Deadline-truncated design just refines on a prefix of the workload:
  // fewer, coarser leaves, every one still positive-volume — weight
  // estimation below proceeds on whatever tree exists.
  const Box domain = Box::Unit(dim_);
  for (const auto& z : workload) {
    if (DeadlineExpired()) break;
    const double qvol =
        QueryBoxIntersectionVolume(z.query, domain, options_.volume);
    if (qvol <= 0.0) continue;  // range misses the domain entirely
    Refine(0, z.query, qvol, z.selectivity);
  }

  // Index the leaves.
  std::vector<int32_t> leaf_index(nodes_.size(), -1);
  int32_t next = 0;
  for (size_t u = 0; u < nodes_.size(); ++u) {
    if (IsLeaf(static_cast<int32_t>(u))) {
      leaf_index[u] = next++;
      SEL_CHECK_MSG(nodes_[u].box.Volume() > 0.0,
                    "QuadHist: bucket design produced a zero-volume leaf");
    }
  }
  SEL_CHECK(static_cast<size_t>(next) == num_leaves_);

  // ---- Weight estimation (Eq. 8 / §4.6). ----
  // The tree is frozen after refinement, so row collection is a read-only
  // traversal and parallelizes row-per-slot like BuildBoxFractionMatrix.
  std::vector<std::vector<std::pair<int, double>>> rows(workload.size());
  SparseMatrix a;
  {
    SEL_TRACE_SPAN("train.assemble_matrix");
    SEL_METRIC_SCOPED_LATENCY("train.assemble_us");
    ParallelFor(0, static_cast<int64_t>(workload.size()), 1, [&](int64_t i) {
      if (DeadlineExpired()) return;  // remaining rows stay empty
      CollectRow(0, workload[i].query, &rows[i], leaf_index);
    });
    a = SparseMatrix::FromRows(static_cast<int>(num_leaves_), rows);
  }
  const Vector s = SelectivitiesOf(workload);
  auto weights = SolveBucketWeights(a, s, options_.objective,
                                    options_.solver, options_.lp,
                                    &train_stats_);
  if (!weights.ok()) return weights.status();
  for (size_t u = 0; u < nodes_.size(); ++u) {
    if (leaf_index[u] >= 0) {
      nodes_[u].weight = weights.value()[leaf_index[u]];
    }
  }

  trained_ = true;
  train_stats_.train_seconds = timer.Seconds();
  return StorePlan();
}

std::vector<Box> QuadHist::LeafBoxes() const {
  std::vector<Box> out;
  out.reserve(num_leaves_);
  for (size_t u = 0; u < nodes_.size(); ++u) {
    if (IsLeaf(static_cast<int32_t>(u))) out.push_back(nodes_[u].box);
  }
  return out;
}

Result<CompiledPlan> QuadHist::Compile() const {
  if (!trained_) {
    return Status::FailedPrecondition("QuadHist::Compile before Train");
  }
  return CompiledPlan::FromBoxBuckets(LeafBoxes(), LeafWeights(),
                                      options_.volume, RegistryName());
}

Vector QuadHist::LeafWeights() const {
  Vector out;
  out.reserve(num_leaves_);
  for (size_t u = 0; u < nodes_.size(); ++u) {
    if (IsLeaf(static_cast<int32_t>(u))) out.push_back(nodes_[u].weight);
  }
  return out;
}

namespace {

Result<std::unique_ptr<SelectivityModel>> BuildQuadHist(
    int dim, size_t train_size, const EstimatorSpec& spec) {
  SpecOptionReader reader(spec);
  QuadHistOptions o;
  // The harness default is tau = 0.002 (the paper's Power setting), not
  // the conservative struct default.
  o.tau = reader.GetDouble("tau", 0.002);
  o.max_leaves = spec.ResolveBudget(train_size);
  o.objective = spec.objective;
  const std::string solver = reader.GetString("solver", "pg");
  const Status st = reader.Finish();
  if (!st.ok()) return st;
  if (solver == "nnls") {
    o.solver.method = SimplexLsqOptions::Method::kNnls;
  } else if (solver != "pg") {
    return Status::InvalidArgument(
        "estimator spec 'quadhist': option 'solver' has bad value '" +
        solver + "' (expected 'pg' or 'nnls')");
  }
  return std::unique_ptr<SelectivityModel>(new QuadHist(dim, o));
}

Status SaveQuadHist(const SelectivityModel& model, std::ostream& out) {
  const auto* qh = dynamic_cast<const QuadHist*>(&model);
  if (qh == nullptr) {
    return Status::InvalidArgument("save hook: model is not a QuadHist");
  }
  return WriteBoxModel(out, model.RegistryName(), qh->LeafBoxes(),
                       qh->LeafWeights());
}

}  // namespace

SEL_REGISTER_ESTIMATOR(
    "quadhist",
    .display_name = "QuadHist",
    .paper_section = "§3.2",
    .options_summary = "tau=<t> (0.002), solver=pg|nnls, budget, objective,"
                       " seed",
    .build = BuildQuadHist,
    .save = SaveQuadHist,
    .load = LoadBoxModel)

}  // namespace sel
