#include "baselines/isomer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/timer.h"
#include "core/estimator_registry.h"

namespace sel {

namespace {

// True if `inner` is fully contained in `outer`.
bool Covers(const Box& outer, const Box& inner) {
  return outer.ContainsBox(inner);
}

// Shrinks `c` along one axis-aligned cut so it no longer overlaps `child`,
// choosing the cut that preserves the most volume. Requires a partial
// overlap (neither box contains the other).
Box ShrinkAway(const Box& c, const Box& child) {
  Box best = c;
  double best_vol = -1.0;
  for (int j = 0; j < c.dim(); ++j) {
    // Cut below the child's low facet.
    if (child.lo(j) > c.lo(j) && child.lo(j) < c.hi(j)) {
      Point hi = c.hi();
      hi[j] = child.lo(j);
      Box cut(c.lo(), std::move(hi));
      if (cut.Volume() > best_vol) {
        best_vol = cut.Volume();
        best = cut;
      }
    }
    // Cut above the child's high facet.
    if (child.hi(j) < c.hi(j) && child.hi(j) > c.lo(j)) {
      Point lo = c.lo();
      lo[j] = child.hi(j);
      Box cut(std::move(lo), c.hi());
      if (cut.Volume() > best_vol) {
        best_vol = cut.Volume();
        best = cut;
      }
    }
  }
  return best_vol >= 0.0 ? best : Box(c.lo(), c.lo());  // degenerate: give up
}

}  // namespace

Isomer::Isomer(int domain_dim, const IsomerOptions& options)
    : dim_(domain_dim), options_(options) {
  SEL_CHECK(domain_dim >= 1);
}

void Isomer::Drill(int b, const Box& range) {
  if (buckets_.size() >= options_.max_buckets) return;
  // Copy: recursive drilling below reallocates buckets_.
  const Box box = buckets_[b].box;
  auto inter = box.Intersection(range);
  if (!inter.has_value() || inter->Volume() <= 0.0) return;

  // Recurse into children that the range touches (deeper holes first, so
  // the candidate below only needs to avoid *this* level's children).
  // Iterate over a copy: drilling may add children to b.
  const std::vector<int> kids = buckets_[b].children;
  for (int ch : kids) {
    Drill(ch, range);
  }

  Box candidate = *inter;
  if (Covers(range, box)) return;  // b fully covered: no hole to cut

  // Shrink the candidate until it partially overlaps no child of b.
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    if (candidate.Volume() <= 0.0) return;
    for (int ch : buckets_[b].children) {
      const Box& cb = buckets_[ch].box;
      if (!candidate.Intersects(cb)) continue;
      if (Covers(candidate, cb)) continue;  // child will be re-parented
      if (Covers(cb, candidate)) return;    // hole belongs inside the child
      candidate = ShrinkAway(candidate, cb);
      shrunk = true;
      break;
    }
  }
  if (candidate.Volume() <= 0.0) return;
  if (Covers(candidate, buckets_[b].box)) return;  // degenerate: whole box

  // Add the hole; re-parent the children it swallowed.
  const int hole = static_cast<int>(buckets_.size());
  Bucket nb;
  nb.box = candidate;
  buckets_.push_back(std::move(nb));
  auto& parent_children = buckets_[b].children;
  std::vector<int> keep;
  keep.reserve(parent_children.size());
  for (int ch : parent_children) {
    if (Covers(candidate, buckets_[ch].box)) {
      buckets_[hole].children.push_back(ch);
    } else {
      keep.push_back(ch);
    }
  }
  keep.push_back(hole);
  parent_children = std::move(keep);
}

void Isomer::RecomputeEffectiveVolumes() {
  for (auto& b : buckets_) {
    double v = b.box.Volume();
    for (int ch : b.children) v -= buckets_[ch].box.Volume();
    b.effective_volume = std::max(v, 0.0);
  }
}

double Isomer::EffectiveFraction(int b, const Box& range) const {
  const Bucket& bucket = buckets_[b];
  if (bucket.effective_volume <= 0.0) return 0.0;
  double v = BoxBoxIntersectionVolume(bucket.box, range);
  if (v <= 0.0) return 0.0;
  for (int ch : bucket.children) {
    v -= BoxBoxIntersectionVolume(buckets_[ch].box, range);
  }
  return std::clamp(v / bucket.effective_volume, 0.0, 1.0);
}

Status Isomer::Train(const Workload& workload) {
  if (trained_) {
    return Status::FailedPrecondition("Isomer::Train called twice");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("Isomer: empty training workload");
  }
  for (const auto& z : workload) {
    if (z.query.type() != QueryType::kBox) {
      return Status::Unimplemented(
          "Isomer supports orthogonal range queries only");
    }
    if (z.query.dim() != dim_) {
      return Status::InvalidArgument("Isomer: query dimension mismatch");
    }
  }
  WallTimer timer;

  // ---- STHoles bucket creation. ----
  Bucket root;
  root.box = Box::Unit(dim_);
  buckets_.clear();
  buckets_.push_back(std::move(root));
  for (const auto& z : workload) {
    Drill(0, z.query.box());
  }
  RecomputeEffectiveVolumes();
  const size_t m = buckets_.size();

  // ---- Max-entropy weights by multiplicative iterative scaling. ----
  // Start from the uniform distribution over the domain.
  for (auto& b : buckets_) b.weight = b.effective_volume;
  {
    double total = 0.0;
    for (const auto& b : buckets_) total += b.weight;
    if (total <= 0.0) {
      buckets_[0].weight = 1.0;
    } else {
      for (auto& b : buckets_) b.weight /= total;
    }
  }

  // Precompute each constraint's sparse coefficient row.
  const size_t n = workload.size();
  std::vector<std::vector<std::pair<int, double>>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    const Box& r = workload[i].query.box();
    for (size_t b = 0; b < m; ++b) {
      const double f = EffectiveFraction(static_cast<int>(b), r);
      if (f > 0.0) rows[i].emplace_back(static_cast<int>(b), f);
    }
  }

  const double kFloor = 1e-9;
  double worst = 0.0;
  int sweep = 0;
  for (; sweep < options_.max_sweeps; ++sweep) {
    worst = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double est = 0.0;
      for (const auto& [b, f] : rows[i]) est += f * buckets_[b].weight;
      const double target = workload[i].selectivity;
      worst = std::max(worst, std::abs(est - target));
      const double factor =
          std::max(target, kFloor) / std::max(est, kFloor);
      if (std::abs(factor - 1.0) < 1e-12) continue;
      for (const auto& [b, f] : rows[i]) {
        buckets_[b].weight *= std::pow(factor, f);
      }
      // Keep the total mass at one (the root constraint s(domain) = 1).
      double total = 0.0;
      for (const auto& b : buckets_) total += b.weight;
      if (total > 0.0) {
        for (auto& b : buckets_) b.weight /= total;
      }
    }
    if (worst < options_.tolerance) break;
  }
  train_stats_.solver_iterations = sweep;
  {
    double loss = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double est = 0.0;
      for (const auto& [b, f] : rows[i]) est += f * buckets_[b].weight;
      const double d = est - workload[i].selectivity;
      loss += d * d;
    }
    train_stats_.train_loss = loss / static_cast<double>(n);
  }

  trained_ = true;
  train_stats_.train_seconds = timer.Seconds();
  return StorePlan();
}

namespace {

/// Subtracts `hole` from `piece` by slab cuts, appending the (pairwise
/// disjoint) remainder boxes to `out`. Every emitted facet coordinate is
/// copied verbatim from `piece` or `hole` — no arithmetic — so the
/// disjointification introduces no rounding of its own.
void SubtractBox(const Box& piece, const Box& hole,
                 std::vector<Box>* out) {
  const int d = piece.dim();
  Point cur_lo = piece.lo();
  Point cur_hi = piece.hi();
  for (int j = 0; j < d; ++j) {
    if (hole.lo(j) > cur_lo[j]) {
      Point hi = cur_hi;
      hi[j] = hole.lo(j);
      out->emplace_back(cur_lo, std::move(hi));
      cur_lo[j] = hole.lo(j);
    }
    if (hole.hi(j) < cur_hi[j]) {
      Point lo = cur_lo;
      lo[j] = hole.hi(j);
      out->emplace_back(std::move(lo), cur_hi);
      cur_hi[j] = hole.hi(j);
    }
  }
  // What remains of `cur` lies inside the hole and is dropped.
}

}  // namespace

Result<CompiledPlan> Isomer::Compile() const {
  if (!trained_) {
    return Status::FailedPrecondition("Isomer::Compile before Train");
  }
  std::vector<Box> entries;
  std::vector<double> weights;
  std::vector<Box> pieces, next;
  for (const Bucket& b : buckets_) {
    if (b.weight == 0.0 || b.effective_volume <= 0.0) continue;
    // Effective region = box minus the child holes, as disjoint boxes.
    pieces.clear();
    pieces.push_back(b.box);
    for (int ch : b.children) {
      const Box& hole = buckets_[ch].box;
      next.clear();
      for (const Box& p : pieces) {
        const auto inter = p.Intersection(hole);
        if (!inter.has_value() || inter->Volume() <= 0.0) {
          next.push_back(p);  // zero-volume overlap contributes nothing
        } else {
          SubtractBox(p, hole, &next);
        }
      }
      pieces.swap(next);
    }
    // Each piece carries the bucket's density: the fraction formula
    // Σ_P vol(P∩R)/eff_vol·w_b recovers EffectiveFraction exactly (the
    // pieces tile the effective region).
    for (const Box& p : pieces) {
      const double pv = p.Volume();
      if (pv <= 0.0) continue;
      entries.push_back(p);
      weights.push_back(b.weight * (pv / b.effective_volume));
    }
  }
  if (entries.empty()) {
    return Status::FailedPrecondition(
        "Isomer::Compile: no effective regions with mass");
  }
  return CompiledPlan::FromBoxBuckets(entries, weights, options_.volume,
                                      RegistryName());
}

namespace {

Result<std::unique_ptr<SelectivityModel>> BuildIsomer(
    int dim, size_t train_size, const EstimatorSpec& spec) {
  (void)train_size;
  SpecOptionReader reader(spec);
  // ISOMER's bucket count is emergent (STHoles drilling), so the budget,
  // objective, and seed universals do not apply; the paper runs it with
  // its own defaults (§4.1).
  IsomerOptions o;
  o.max_sweeps = reader.GetInt("sweeps", o.max_sweeps);
  const Status st = reader.Finish();
  if (!st.ok()) return st;
  return std::unique_ptr<SelectivityModel>(new Isomer(dim, o));
}

}  // namespace

SEL_REGISTER_ESTIMATOR(
    "isomer",
    .display_name = "Isomer",
    .paper_section = "§4.1 baseline",
    .options_summary = "sweeps=<k> (400)",
    .build = BuildIsomer)

}  // namespace sel
