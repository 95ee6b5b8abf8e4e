#include "serve/compiled_plan.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace sel {

namespace {

/// Entries per pruning-tree leaf. Small enough that a partial overlap
/// scans little, large enough that the tree itself stays shallow.
constexpr uint32_t kLeafSize = 16;

/// Builds a pruning tree over entries described by entry-major bbox
/// arrays (`elo`/`ehi`, entry j coordinate c at [j*dim+c]). Writes the
/// entry permutation (new position -> input index) into `order` and the
/// nodes into `nodes` (weight sums left at 0; the caller fills them once
/// the final order is known).
///
/// The arrangement is a pure function of the entry MULTISET: each level
/// sorts its range by the split-axis center with a full content
/// comparison as tie-break, so compiling, serializing, and re-loading a
/// plan reproduces the identical entry order — and therefore bit-identical
/// summation — no matter what order the entries arrived in.
template <typename NodeT>
class TreeBuilder {
 public:
  TreeBuilder(const std::vector<double>& elo, const std::vector<double>& ehi,
              const std::vector<double>& weights, int dim,
              std::vector<uint32_t>* order, std::vector<NodeT>* nodes)
      : elo_(elo), ehi_(ehi), weights_(weights), dim_(dim), order_(*order),
        nodes_(*nodes) {
    const uint32_t n = static_cast<uint32_t>(weights_.size());
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0u);
    nodes_.clear();
    if (n == 0) return;
    nodes_.reserve(2 * n / kLeafSize + 2);
    Build(0, n, 0);
    FillWeightSums(0);
  }

 private:
  Box BoundsOf(uint32_t begin, uint32_t end) const {
    Point lo(static_cast<size_t>(dim_)), hi(static_cast<size_t>(dim_));
    const size_t e0 = static_cast<size_t>(order_[begin]) * dim_;
    for (int c = 0; c < dim_; ++c) {
      lo[c] = elo_[e0 + c];
      hi[c] = ehi_[e0 + c];
    }
    for (uint32_t i = begin + 1; i < end; ++i) {
      const size_t e = static_cast<size_t>(order_[i]) * dim_;
      for (int c = 0; c < dim_; ++c) {
        lo[c] = std::min(lo[c], elo_[e + c]);
        hi[c] = std::max(hi[c], ehi_[e + c]);
      }
    }
    return Box(std::move(lo), std::move(hi));
  }

  /// Content order: split-axis center first, then every coordinate and
  /// the weight — never the input position, so the order is canonical.
  bool Less(uint32_t a, uint32_t b, int axis) const {
    const size_t ea = static_cast<size_t>(a) * dim_;
    const size_t eb = static_cast<size_t>(b) * dim_;
    const double ka = elo_[ea + axis] + ehi_[ea + axis];
    const double kb = elo_[eb + axis] + ehi_[eb + axis];
    if (ka != kb) return ka < kb;
    for (int c = 0; c < dim_; ++c) {
      if (elo_[ea + c] != elo_[eb + c]) return elo_[ea + c] < elo_[eb + c];
      if (ehi_[ea + c] != ehi_[eb + c]) return ehi_[ea + c] < ehi_[eb + c];
    }
    return weights_[a] < weights_[b];
  }

  int32_t Build(uint32_t begin, uint32_t end, int depth) {
    const int32_t id = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(NodeT{});
    nodes_[id].begin = begin;
    nodes_[id].end = end;
    Box bbox = BoundsOf(begin, end);
    if (end - begin <= kLeafSize) {
      nodes_[id].bbox = std::move(bbox);
      return id;
    }
    int axis = 0;
    double best_width = -1.0;
    for (int c = 0; c < dim_; ++c) {
      if (bbox.width(c) > best_width) {
        best_width = bbox.width(c);
        axis = c;
      }
    }
    if (best_width <= 0.0) axis = depth % dim_;
    std::sort(order_.begin() + begin, order_.begin() + end,
              [this, axis](uint32_t a, uint32_t b) {
                return Less(a, b, axis);
              });
    const uint32_t mid = begin + (end - begin) / 2;
    const int32_t left = Build(begin, mid, depth + 1);
    const int32_t right = Build(mid, end, depth + 1);
    nodes_[id].bbox = std::move(bbox);
    nodes_[id].left = left;
    nodes_[id].right = right;
    return id;
  }

  double FillWeightSums(int32_t id) {
    NodeT& n = nodes_[id];
    if (n.left < 0) {
      double sum = 0.0;
      for (uint32_t i = n.begin; i < n.end; ++i) sum += weights_[order_[i]];
      n.weight_sum = sum;
      return sum;
    }
    n.weight_sum = FillWeightSums(n.left) + FillWeightSums(n.right);
    return n.weight_sum;
  }

  const std::vector<double>& elo_;
  const std::vector<double>& ehi_;
  const std::vector<double>& weights_;
  const int dim_;
  std::vector<uint32_t>& order_;
  std::vector<NodeT>& nodes_;
};

template <typename T>
std::vector<T> Permute(const std::vector<T>& in,
                       const std::vector<uint32_t>& order) {
  std::vector<T> out;
  out.reserve(order.size());
  for (uint32_t e : order) out.push_back(in[e]);
  return out;
}

/// True if the box query [qlo, qhi] is disjoint from `bbox` (closed
/// intersection, matching Box::Intersects).
bool BoxDisjoint(const Point& qlo, const Point& qhi, const Box& bbox) {
  for (int c = 0; c < bbox.dim(); ++c) {
    if (qhi[c] < bbox.lo(c) || bbox.hi(c) < qlo[c]) return true;
  }
  return false;
}

/// True if the box query [qlo, qhi] fully contains `bbox`.
bool BoxContains(const Point& qlo, const Point& qhi, const Box& bbox) {
  for (int c = 0; c < bbox.dim(); ++c) {
    if (bbox.lo(c) < qlo[c] || qhi[c] < bbox.hi(c)) return false;
  }
  return true;
}

}  // namespace

Result<CompiledPlan> CompiledPlan::FromBoxBuckets(
    const std::vector<Box>& buckets, const std::vector<double>& weights,
    const VolumeOptions& volume, std::string source) {
  if (buckets.empty() || buckets.size() != weights.size()) {
    return Status::InvalidArgument(
        "CompiledPlan: box buckets/weights empty or misaligned");
  }
  Parts parts;
  parts.dim = buckets[0].dim();
  parts.source = std::move(source);
  parts.volume = volume;
  for (size_t j = 0; j < buckets.size(); ++j) {
    const Box& b = buckets[j];
    if (b.dim() != parts.dim) {
      return Status::InvalidArgument("CompiledPlan: mixed bucket dimensions");
    }
    if (!std::isfinite(weights[j])) {
      return Status::InvalidArgument("CompiledPlan: non-finite bucket weight");
    }
    if (weights[j] == 0.0) continue;  // exact +0.0 contribution: drop
    const double vol = b.Volume();
    if (vol > 0.0) {
      for (int c = 0; c < parts.dim; ++c) parts.box_lo.push_back(b.lo(c));
      for (int c = 0; c < parts.dim; ++c) parts.box_hi.push_back(b.hi(c));
      parts.box_weight.push_back(weights[j]);
      parts.box_inv_vol.push_back(1.0 / vol);
    } else {
      // Degenerate bucket: Eq. (6)'s fraction collapses to center
      // containment (QueryBoxFraction), which is exactly a point bucket.
      parts.points.push_back(b.Center());
      parts.point_weight.push_back(weights[j]);
    }
  }
  return FromParts(std::move(parts));
}

Result<CompiledPlan> CompiledPlan::FromPointBuckets(
    const std::vector<Point>& points, const std::vector<double>& weights,
    std::string source) {
  if (points.empty() || points.size() != weights.size()) {
    return Status::InvalidArgument(
        "CompiledPlan: points/weights empty or misaligned");
  }
  Parts parts;
  parts.dim = static_cast<int>(points[0].size());
  parts.source = std::move(source);
  for (size_t j = 0; j < points.size(); ++j) {
    if (static_cast<int>(points[j].size()) != parts.dim) {
      return Status::InvalidArgument("CompiledPlan: mixed point dimensions");
    }
    if (!std::isfinite(weights[j])) {
      return Status::InvalidArgument("CompiledPlan: non-finite point weight");
    }
    if (weights[j] == 0.0) continue;
    parts.points.push_back(points[j]);
    parts.point_weight.push_back(weights[j]);
  }
  return FromParts(std::move(parts));
}

Result<CompiledPlan> CompiledPlan::FromParts(Parts parts) {
  if (parts.dim < 1) {
    return Status::InvalidArgument("CompiledPlan: dimension must be >= 1");
  }
  const size_t d = static_cast<size_t>(parts.dim);
  const size_t nb = parts.box_weight.size();
  if (parts.box_lo.size() != nb * d || parts.box_hi.size() != nb * d ||
      parts.box_inv_vol.size() != nb) {
    return Status::InvalidArgument("CompiledPlan: misaligned box arrays");
  }
  if (parts.points.size() != parts.point_weight.size()) {
    return Status::InvalidArgument("CompiledPlan: misaligned point arrays");
  }
  if (nb + parts.points.size() == 0) {
    return Status::InvalidArgument(
        "CompiledPlan: no entries (all buckets had zero weight?)");
  }
  for (double w : parts.box_weight) {
    if (!std::isfinite(w)) {
      return Status::InvalidArgument("CompiledPlan: non-finite box weight");
    }
  }
  for (double iv : parts.box_inv_vol) {
    if (!std::isfinite(iv) || iv <= 0.0) {
      return Status::InvalidArgument(
          "CompiledPlan: inverse volumes must be finite and positive");
    }
  }
  for (const Point& p : parts.points) {
    if (p.size() != d) {
      return Status::InvalidArgument("CompiledPlan: mixed point dimensions");
    }
    for (double x : p) {
      if (!std::isfinite(x)) {
        return Status::InvalidArgument(
            "CompiledPlan: non-finite point coordinate");
      }
    }
  }
  for (double w : parts.point_weight) {
    if (!std::isfinite(w)) {
      return Status::InvalidArgument("CompiledPlan: non-finite point weight");
    }
  }

  CompiledPlan plan;
  plan.dim_ = parts.dim;
  plan.source_ = std::move(parts.source);
  plan.volume_ = parts.volume;
  plan.BuildBoxSegment(parts.box_lo, parts.box_hi, parts.box_weight,
                       parts.box_inv_vol);
  plan.BuildPointSegment(parts.points, parts.point_weight);
  return plan;
}

namespace {

/// The padded kernel stores must start on a cache line — the SIMD leaf
/// kernels and SimdPaddedCount's no-tail-loop guarantee assume it.
void CheckKernelStoreAlignment(const AlignedVector& v) {
  SEL_CHECK_MSG(reinterpret_cast<uintptr_t>(v.data()) % kSimdAlign == 0,
                "CompiledPlan: kernel store is not %zu-byte aligned",
                kSimdAlign);
}

}  // namespace

void CompiledPlan::BuildBoxSegment(const std::vector<double>& lo,
                                   const std::vector<double>& hi,
                                   const std::vector<double>& weight,
                                   const std::vector<double>& inv_vol) {
  const size_t d = static_cast<size_t>(dim_);
  std::vector<uint32_t> order;
  TreeBuilder<Node>(lo, hi, weight, dim_, &order, &box_nodes_);
  const size_t n = order.size();
  if (n == 0) return;
  // Lay the entries out in the tree's order so leaves scan contiguous
  // memory. The coordinate-major store is over-allocated to a block
  // multiple with never-intersecting sentinel boxes (any query clamps
  // their width to <= -4 < 0, so over-read lanes are dead before the
  // tail mask even applies) — the leaf kernels never run a scalar tail.
  box_stride_ = SimdPaddedCount(n);
  box_lo_.assign(d * box_stride_, 2.0);
  box_hi_.assign(d * box_stride_, -2.0);
  box_weight_.assign(box_stride_, 0.0);
  box_inv_vol_.assign(box_stride_, 0.0);
  box_entries_.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    const size_t src = order[j];
    Point blo(d), bhi(d);
    for (size_t c = 0; c < d; ++c) {
      blo[c] = box_lo_[c * box_stride_ + j] = lo[src * d + c];
      bhi[c] = box_hi_[c * box_stride_ + j] = hi[src * d + c];
    }
    box_entries_.emplace_back(std::move(blo), std::move(bhi));
    box_weight_[j] = weight[src];
    box_inv_vol_[j] = inv_vol[src];
  }
  CheckKernelStoreAlignment(box_lo_);
  CheckKernelStoreAlignment(box_hi_);
  CheckKernelStoreAlignment(box_weight_);
  CheckKernelStoreAlignment(box_inv_vol_);
}

void CompiledPlan::BuildPointSegment(const std::vector<Point>& points,
                                     const std::vector<double>& weight) {
  const size_t d = static_cast<size_t>(dim_);
  const size_t n = points.size();
  if (n == 0) return;
  // The builder wants entry-major bboxes; a point's bbox is itself.
  std::vector<double> coords(n * d);
  for (size_t j = 0; j < n; ++j) {
    std::copy_n(points[j].begin(), d, coords.begin() + j * d);
  }
  std::vector<uint32_t> order;
  TreeBuilder<Node>(coords, coords, weight, dim_, &order, &point_nodes_);
  // Padded coordinate-major kernel store: run c holds coordinate c of
  // every point, so the box kernel mask-filters a leaf one contiguous
  // dimension at a time. Sentinel entries carry weight 0, so over-read
  // lanes beyond the last entry contribute exactly +0.0.
  point_stride_ = SimdPaddedCount(n);
  point_coords_.assign(d * point_stride_, 0.0);
  point_weight_.assign(point_stride_, 0.0);
  point_entries_ = Permute(points, order);
  for (size_t j = 0; j < n; ++j) {
    for (size_t c = 0; c < d; ++c) {
      point_coords_[c * point_stride_ + j] = point_entries_[j][c];
    }
    point_weight_[j] = weight[order[j]];
  }
  CheckKernelStoreAlignment(point_coords_);
  CheckKernelStoreAlignment(point_weight_);
}

std::vector<double> CompiledPlan::box_lo() const {
  std::vector<double> out;
  out.reserve(num_box_entries() * static_cast<size_t>(dim_));
  for (const Box& b : box_entries_) {
    out.insert(out.end(), b.lo().begin(), b.lo().end());
  }
  return out;
}

std::vector<double> CompiledPlan::box_hi() const {
  std::vector<double> out;
  out.reserve(num_box_entries() * static_cast<size_t>(dim_));
  for (const Box& b : box_entries_) {
    out.insert(out.end(), b.hi().begin(), b.hi().end());
  }
  return out;
}

double CompiledPlan::EvalBoxNode(int32_t id, const Query& query,
                                 const Box* query_box,
                                 PlanEvalStats* stats) const {
  const Node& n = box_nodes_[id];
  if (query_box != nullptr) {
    const Point& qlo = query_box->lo();
    const Point& qhi = query_box->hi();
    if (BoxDisjoint(qlo, qhi, n.bbox)) return 0.0;
    if (BoxContains(qlo, qhi, n.bbox)) return n.weight_sum;
    if (n.left < 0) {
      if (stats != nullptr) stats->entries_visited += n.end - n.begin;
      // Vectorized clamp/intersect over the padded coordinate-major
      // store: per entry the same arithmetic as
      // BoxBoxIntersectionVolume with the division replaced by the
      // precomputed inverse volume, branchless, dispatched per
      // SEL_SIMD (common/simd.h).
      return SimdBoxLeafSum(qlo.data(), qhi.data(), dim_, box_lo_.data(),
                            box_hi_.data(), box_weight_.data(),
                            box_inv_vol_.data(), box_stride_, n.begin,
                            n.end);
    }
  } else {
    if (query.DisjointFromBox(n.bbox)) return 0.0;
    if (query.ContainsBox(n.bbox)) return n.weight_sum;
    if (n.left < 0) {
      if (stats != nullptr) stats->entries_visited += n.end - n.begin;
      double sum = 0.0;
      for (uint32_t j = n.begin; j < n.end; ++j) {
        sum += BoxBucketTerm(query, box_entries_[j], box_weight_[j],
                             box_inv_vol_[j], volume_);
      }
      return sum;
    }
  }
  return EvalBoxNode(n.left, query, query_box, stats) +
         EvalBoxNode(n.right, query, query_box, stats);
}

double CompiledPlan::EvalPointNode(int32_t id, const Query& query,
                                   const Box* query_box,
                                   PlanEvalStats* stats) const {
  const Node& n = point_nodes_[id];
  if (query_box != nullptr) {
    const Point& qlo = query_box->lo();
    const Point& qhi = query_box->hi();
    if (BoxDisjoint(qlo, qhi, n.bbox)) return 0.0;
    if (BoxContains(qlo, qhi, n.bbox)) return n.weight_sum;
    if (n.left < 0) {
      if (stats != nullptr) stats->entries_visited += n.end - n.begin;
      // Dimension-at-a-time alive-mask filtering over the padded
      // coordinate-major runs — real vector bitmask operations under
      // SSE2/AVX2 dispatch (common/simd.h).
      return SimdPointLeafSum(qlo.data(), qhi.data(), dim_,
                              point_coords_.data(), point_weight_.data(),
                              point_stride_, n.begin, n.end);
    }
  } else {
    if (query.DisjointFromBox(n.bbox)) return 0.0;
    if (query.ContainsBox(n.bbox)) return n.weight_sum;
    if (n.left < 0) {
      if (stats != nullptr) stats->entries_visited += n.end - n.begin;
      double sum = 0.0;
      for (uint32_t j = n.begin; j < n.end; ++j) {
        if (query.Contains(point_entries_[j])) sum += point_weight_[j];
      }
      return sum;
    }
  }
  return EvalPointNode(n.left, query, query_box, stats) +
         EvalPointNode(n.right, query, query_box, stats);
}

double CompiledPlan::EstimateOne(const Query& query,
                                 PlanEvalStats* stats) const {
  SEL_CHECK_MSG(query.dim() == dim_,
                "CompiledPlan: query dimension mismatch");
  // Admission: NaN/inf parameters or inverted intervals would silently
  // poison the kernel arithmetic (NaN fails every SIMD mask comparison,
  // yielding a confident 0 for half the forms and NaN for the rest).
  // Reject to the empty-range answer and count the rejection instead.
  if (!QueryIsValid(query)) {
    SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
    return 0.0;
  }
  if (stats != nullptr) stats->entries_total += size();
  const Box* query_box =
      query.type() == QueryType::kBox ? &query.box() : nullptr;
  double s = 0.0;
  if (!box_nodes_.empty()) s += EvalBoxNode(0, query, query_box, stats);
  if (!point_nodes_.empty()) s += EvalPointNode(0, query, query_box, stats);
  return std::clamp(s, 0.0, 1.0);
}

void CompiledPlan::EstimateMany(const Query* queries, size_t count,
                                double* out, PlanEvalStats* stats) const {
  SEL_TRACE_SPAN("serve.plan.batch");
  SEL_METRIC_SCOPED_LATENCY("serve.plan.batch_us");
  SEL_METRIC_COUNTER_ADD("serve.plan.queries_total", count);
  if (count == 0) return;
  // Per-query slots keep the pruning accounting race-free and its totals
  // deterministic for any thread count.
  const bool want_stats = stats != nullptr || MetricsEnabled();
  std::vector<PlanEvalStats> per(want_stats ? count : 0);
  ParallelFor(0, static_cast<int64_t>(count), 4, [&](int64_t i) {
    out[i] = EstimateOne(queries[i], want_stats ? &per[i] : nullptr);
  });
  if (want_stats) {
    PlanEvalStats total;
    for (const PlanEvalStats& s : per) {
      total.entries_total += s.entries_total;
      total.entries_visited += s.entries_visited;
    }
    SEL_METRIC_GAUGE_SET("serve.plan.prune_ratio_pct",
                         static_cast<int64_t>(100.0 * total.PruneRatio()));
    if (stats != nullptr) {
      stats->entries_total += total.entries_total;
      stats->entries_visited += total.entries_visited;
    }
  }
}

std::vector<double> CompiledPlan::EstimateMany(
    const std::vector<Query>& queries, PlanEvalStats* stats) const {
  std::vector<double> out(queries.size());
  EstimateMany(queries.data(), queries.size(), out.data(), stats);
  return out;
}

}  // namespace sel
