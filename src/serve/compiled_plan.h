// The serving-time IR: every trained estimator in the paper reduces at
// prediction time to one of two evaluations — Eq. (6)
// Σ_j w_j·vol(B_j∩R)/vol(B_j) over box buckets and Eq. (7)
// Σ_j w_j·1(p_j∈R) over point buckets. A CompiledPlan is the immutable,
// flattened lowering of a trained model to exactly those two forms:
//
//  * box buckets as 64-byte-aligned, padded coordinate-major runs of
//    lo/hi plus padded weight/inverse-volume arrays (inverse volumes
//    precomputed once at compile time instead of per call), which the
//    runtime-dispatched SIMD leaf kernels (common/simd.h) scan
//    full-width with no scalar tails, and the same boxes as Box objects
//    for the non-box query kernels,
//  * point buckets as padded coordinate-major arrays (one contiguous
//    run per dimension, so the box fast path mask-filters a leaf one
//    dimension at a time) plus the points themselves,
//  * a bucket-pruning kd-tree per segment (median split over bucket
//    bounding boxes, the CountingKdTree machinery): nodes cache their
//    bbox and subtree weight sum, so a query skips disjoint subtrees
//    outright and absorbs fully-contained subtrees as one cached sum.
//
// Only the box and point coordinates are held twice (kernel store and
// Box/Point objects); every other value is stored once. Plans are built
// by SelectivityModel::Compile() (see core/model.h) at the end of Train,
// and every SelectivityModel::Estimate of a lowerable model is answered
// by EstimateOne. OnlineEstimator swaps whole trained models (and with them
// their plans) without interrupting readers, and model_io serializes
// plans under the "plan" registry kind. The layer depends only on
// geometry/common — estimators depend on it, never the reverse.
#ifndef SEL_SERVE_COMPILED_PLAN_H_
#define SEL_SERVE_COMPILED_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "geometry/box.h"
#include "geometry/query.h"
#include "geometry/volume.h"

namespace sel {

/// Pruning accounting for one evaluation (or an aggregated batch):
/// `entries_visited` counts the buckets actually scanned in leaves;
/// everything else was skipped as a disjoint subtree or absorbed as a
/// contained subtree's cached weight sum.
struct PlanEvalStats {
  uint64_t entries_total = 0;
  uint64_t entries_visited = 0;

  /// Fraction of entries NOT individually scanned, in [0,1].
  double PruneRatio() const {
    return entries_total == 0
               ? 0.0
               : 1.0 - static_cast<double>(entries_visited) /
                           static_cast<double>(entries_total);
  }
};

/// Shared per-bucket arithmetic of Eq. (6) with a precomputed inverse
/// volume: weight * clamp(vol(B∩R) * inv_vol, 0, 1). An `inv_vol` of 0 is
/// the degenerate-bucket sentinel (zero-volume box): the fraction
/// degenerates to center containment, matching QueryBoxFraction. Kept
/// inline so the plan's non-box kernels and the kernel tests' reference
/// sums share the per-bucket arithmetic.
inline double BoxBucketTerm(const Query& query, const Box& box,
                            double weight, double inv_vol,
                            const VolumeOptions& opts) {
  if (inv_vol <= 0.0) {
    return query.Contains(box.Center()) ? weight : 0.0;
  }
  const double inter = QueryBoxIntersectionVolume(query, box, opts);
  return weight * std::clamp(inter * inv_vol, 0.0, 1.0);
}

/// The immutable serving plan. Thread-safe for concurrent EstimateOne /
/// EstimateMany calls (all state is written at construction).
class CompiledPlan {
 public:
  /// Lowers Eq. (6) box buckets. Zero-weight buckets are dropped (their
  /// contribution is exactly +0.0); zero-volume buckets lower to point
  /// entries at their centers (QueryBoxFraction's degenerate limit).
  /// Fails on misaligned/empty input, mixed dimensions, or non-finite
  /// weights.
  static Result<CompiledPlan> FromBoxBuckets(const std::vector<Box>& buckets,
                                             const std::vector<double>& weights,
                                             const VolumeOptions& volume,
                                             std::string source);

  /// Lowers Eq. (7) point buckets. Zero-weight points are dropped.
  static Result<CompiledPlan> FromPointBuckets(
      const std::vector<Point>& points, const std::vector<double>& weights,
      std::string source);

  /// Mixed-form input for the deserializer: already-flattened box entries
  /// (dim-major lo/hi with their stored inverse volumes, so a loaded plan
  /// reproduces the saved plan's arithmetic exactly) plus point entries
  /// (entry-major coords; converted to coordinate-major internally).
  struct Parts {
    int dim = 0;
    std::string source;
    VolumeOptions volume;
    std::vector<double> box_lo, box_hi, box_weight, box_inv_vol;
    std::vector<Point> points;
    std::vector<double> point_weight;
  };
  static Result<CompiledPlan> FromParts(Parts parts);

  /// Estimate for one query, in [0, 1]. Optionally accumulates pruning
  /// stats into `*stats` (adds, does not reset — callers aggregate).
  double EstimateOne(const Query& query, PlanEvalStats* stats = nullptr) const;

  /// Batch kernel: out[i] = EstimateOne(queries[i]), parallel over the
  /// shared pool, deterministic for any thread count. `stats` (optional)
  /// receives the batch-aggregated pruning accounting.
  void EstimateMany(const Query* queries, size_t count, double* out,
                    PlanEvalStats* stats = nullptr) const;
  std::vector<double> EstimateMany(const std::vector<Query>& queries,
                                   PlanEvalStats* stats = nullptr) const;

  int dim() const { return dim_; }
  size_t num_box_entries() const { return box_entries_.size(); }
  size_t num_point_entries() const { return point_entries_.size(); }
  /// Total entries (the plan's NumBuckets analogue).
  size_t size() const { return num_box_entries() + num_point_entries(); }
  /// Registry name of the model this plan was lowered from ("quadhist",
  /// "isomer", ...; "plan" once round-tripped through a file).
  const std::string& source() const { return source_; }
  const VolumeOptions& volume_options() const { return volume_; }

  // --- Serialization accessors (entries in internal, tree-built order;
  // box arrays are dim-major: entry j, coordinate c at [j*dim + c],
  // rebuilt from the Box objects on each call). ---
  std::vector<double> box_lo() const;
  std::vector<double> box_hi() const;
  std::span<const double> box_weight() const {
    return {box_weight_.data(), num_box_entries()};
  }
  std::span<const double> box_inv_vol() const {
    return {box_inv_vol_.data(), num_box_entries()};
  }
  /// Point coordinate c of point entry j.
  double point_coord(size_t j, int c) const { return point_entries_[j][c]; }
  std::span<const double> point_weight() const {
    return {point_weight_.data(), num_point_entries()};
  }

 private:
  /// One pruning-tree node over a contiguous entry range [begin, end).
  struct Node {
    int32_t left = -1;
    int32_t right = -1;
    uint32_t begin = 0;
    uint32_t end = 0;
    double weight_sum = 0.0;  ///< Σ weights of entries below
    Box bbox;                 ///< bounds of the entries' boxes/points
  };

  CompiledPlan() = default;

  /// Builds the box segment from entry-major `lo`/`hi` (entry j,
  /// coordinate c at [j*dim + c]) and per-entry weights/inverse volumes.
  void BuildBoxSegment(const std::vector<double>& lo,
                       const std::vector<double>& hi,
                       const std::vector<double>& weight,
                       const std::vector<double>& inv_vol);
  void BuildPointSegment(const std::vector<Point>& points,
                         const std::vector<double>& weight);

  double EvalBoxNode(int32_t id, const Query& query, const Box* query_box,
                     PlanEvalStats* stats) const;
  double EvalPointNode(int32_t id, const Query& query, const Box* query_box,
                       PlanEvalStats* stats) const;

  int dim_ = 0;
  std::string source_;
  VolumeOptions volume_;

  // Box segment, in tree order. The kernel store holds coordinate-major
  // lo/hi (run c starts at c * box_stride_) and weight/inv_vol, 64-byte
  // aligned and padded to box_stride_ = SimdPaddedCount(n) with
  // never-intersecting sentinel boxes (lo=+2, hi=-2, weight=0,
  // inv_vol=0), so the SIMD leaf kernels run full-width blocks with no
  // scalar tails (DESIGN.md §12). The Box objects serve the non-box
  // query kernels, which reuse the exact QueryBoxIntersectionVolume
  // arithmetic.
  AlignedVector box_lo_;
  AlignedVector box_hi_;
  AlignedVector box_weight_;
  AlignedVector box_inv_vol_;
  size_t box_stride_ = 0;
  std::vector<Box> box_entries_;
  std::vector<Node> box_nodes_;

  // Point segment, in tree order: padded coordinate-major coords (run c
  // holds coordinate c of every point, stride point_stride_) and
  // weights with a zero-weight sentinel tail, plus the Points for
  // Query::Contains.
  AlignedVector point_coords_;
  AlignedVector point_weight_;
  size_t point_stride_ = 0;
  std::vector<Point> point_entries_;
  std::vector<Node> point_nodes_;
};

}  // namespace sel

#endif  // SEL_SERVE_COMPILED_PLAN_H_
