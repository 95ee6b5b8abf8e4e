// The learned selectivity model interface (the learning procedure 𝒜 of
// §2.1: map a finite training sample z^n to a selectivity function) and
// shared machinery for distribution-backed models of §3.1 — histograms
// (Eq. 6) and discrete distributions (Eq. 7) with weights from Eq. (8).
//
// A distribution-backed model predicts with exactly one of those two
// sums, so it lowers to a CompiledPlan (serve/compiled_plan.h) once, at
// the end of Train, and every Estimate is answered by that plan. Only
// the models with no bucket form (gmm, avi) estimate on their own.
#ifndef SEL_CORE_MODEL_H_
#define SEL_CORE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/query.h"
#include "geometry/volume.h"
#include "serve/compiled_plan.h"
#include "solver/lp.h"
#include "solver/qp.h"
#include "solver/sparse.h"
#include "workload/workload.h"

namespace sel {

/// Training objective of §4.6.
enum class TrainObjective { kL2, kLinf };

/// How far the graceful-degradation chain of SolveBucketWeights had to
/// fall before producing weights. Level 0 is the clean path.
enum class FallbackLevel : int {
  kPrimary = 0,      ///< requested solver converged
  kL2Gradient = 1,   ///< degraded to L2 projected gradient
  kNnlsPolish = 2,   ///< NNLS polish / best non-converged iterate
  kUniform = 3,      ///< uniform simplex weights, the floor
};

/// Per-training-run statistics reported by every model.
struct TrainStats {
  double train_seconds = 0.0;     ///< Wall-clock training time.
  double train_loss = 0.0;        ///< Mean squared loss on the training set.
  int solver_iterations = 0;      ///< Iterations of the accepted solve.
  int fallback_level = 0;         ///< FallbackLevel of the accepted stage.
  bool converged = true;          ///< Accepted solve met its criterion.
  /// Per-stage trail, e.g. "linf:NotConverged;l2pg:converged" — one
  /// entry per solver attempt, in order.
  std::string solver_status;
};

/// Abstract learned selectivity estimator.
class SelectivityModel {
 public:
  virtual ~SelectivityModel() = default;

  /// Fits the model to the training workload. May be called once.
  virtual Status Train(const Workload& workload) = 0;

  /// Estimated selectivity of `query`, in [0, 1]: the plan built by
  /// Train answers it. Only non-lowerable models override this. Calling
  /// before Train is a programming error (SEL_CHECK).
  virtual double Estimate(const Query& query) const;

  /// Model complexity: number of buckets (Figs. 10, 31, 34, 37, ...).
  virtual size_t NumBuckets() const = 0;

  /// Display name ("QuadHist", "PtsHist", "QuickSel", "Isomer", ...).
  virtual std::string Name() const = 0;

  /// The EstimatorRegistry key this model serializes/dispatches under.
  /// Defaults to the lowercased Name(); models whose key differs
  /// (PlanModel) override it.
  virtual std::string RegistryName() const;

  /// Lowers the trained model to its flat serving form (serve/ IR).
  /// Distribution-backed models override this; the default marks the
  /// model non-lowerable (kUnimplemented). Calling before Train fails
  /// with kFailedPrecondition. Train already stores the result (see
  /// shared_plan()); this builds a fresh copy.
  virtual Result<CompiledPlan> Compile() const;

  /// Validating front door over Estimate: rejects malformed queries
  /// (non-finite parameters, inverted intervals — see ValidateQuery)
  /// with InvalidArgument, counted under serve.invalid_query_total,
  /// instead of feeding them into estimator arithmetic. Request-handling
  /// edges call this; trusted internal callers keep the raw Estimate.
  Result<double> TryEstimate(const Query& query) const;

  /// The plan every Estimate is answered from: built at the end of Train
  /// (at construction for PlanModel); nullptr before then and for
  /// non-lowerable models. Callers keep the shared_ptr alive for
  /// lock-free reads.
  std::shared_ptr<const CompiledPlan> shared_plan() const { return plan_; }

  /// Statistics from the last Train call.
  const TrainStats& train_stats() const { return train_stats_; }

 protected:
  SelectivityModel() = default;
  SelectivityModel(const SelectivityModel&) = default;
  SelectivityModel(SelectivityModel&&) = default;
  SelectivityModel& operator=(const SelectivityModel&) = default;
  SelectivityModel& operator=(SelectivityModel&&) = default;
  /// For models that are a plan already (PlanModel).
  explicit SelectivityModel(std::shared_ptr<const CompiledPlan> plan)
      : plan_(std::move(plan)) {}

  /// Lowers the model through Compile() and stores the plan Estimate
  /// serves from. Every lowerable Train ends here, after train_seconds
  /// is set, so a failed lowering is a failed Train.
  Status StorePlan();

  TrainStats train_stats_;

 private:
  std::shared_ptr<const CompiledPlan> plan_;
};

/// Assembles the Eq. (8) coefficient matrix for box buckets: row i holds
/// vol(B_j ∩ R_i)/vol(B_j) for every bucket j intersecting R_i. Entries
/// below `drop_tolerance` are dropped.
SparseMatrix BuildBoxFractionMatrix(const Workload& workload,
                                    const std::vector<Box>& buckets,
                                    const VolumeOptions& volume_options,
                                    double drop_tolerance = 0.0);

/// Assembles the Eq. (7) indicator matrix for point buckets: row i holds
/// 1 for every bucket point inside R_i.
SparseMatrix BuildPointIndicatorMatrix(const Workload& workload,
                                       const std::vector<Point>& buckets);

/// Extracts the selectivity labels of a workload.
Vector SelectivitiesOf(const Workload& workload);

/// Solves for bucket weights under the requested objective: Eq. (8) for
/// kL2 (QP), the Chebyshev LP of §4.6 for kLinf. Returns weights on the
/// simplex and fills `stats` (loss, iterations, fallback trail).
///
/// Never fails on solver trouble: each level runs its solver once, at
/// its full budget, and a non-converged or failed solve degrades down
/// the chain (L∞ LP → L2 projected gradient → NNLS polish of the best
/// iterate → uniform simplex weights). The engaged stage is recorded in
/// `stats->fallback_level` / `solver_status`; only malformed inputs
/// (dimension mismatch, zero buckets) return an error.
Result<Vector> SolveBucketWeights(const SparseMatrix& a, const Vector& s,
                                  TrainObjective objective,
                                  const SimplexLsqOptions& qp_options,
                                  const LpOptions& lp_options,
                                  TrainStats* stats);

}  // namespace sel

#endif  // SEL_CORE_MODEL_H_
