#include "core/online.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/estimator_registry.h"

namespace sel {

namespace {

/// Q-error at one-tuple resolution (mirrors eval_metrics::QError; kept
/// local so the serving core does not depend on the eval layer).
double GateQError(double estimate, double truth) {
  constexpr double kFloor = 1e-9;
  const double e = std::max(estimate, kFloor);
  const double t = std::max(truth, kFloor);
  return std::max(e / t, t / e);
}

/// Share of the window (its most recent records) held out for the
/// publication gate; the candidate trains on the rest.
constexpr double kGateHoldoutFraction = 0.25;
/// Windows smaller than this train on everything and publish ungated.
constexpr size_t kGateMinWindow = 16;
/// Capacity of the last-good snapshot ring behind RollbackLastGood().
constexpr size_t kRollbackRing = 4;

double Median(std::vector<double> v) {
  SEL_CHECK(!v.empty());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

}  // namespace

Status OnlineOptions::Validate() const {
  // NaN-proof: `!(x >= lo && x <= hi)` also rejects NaN, which plain
  // range comparisons would wave through.
  if (!(prior_estimate >= 0.0 && prior_estimate <= 1.0)) {
    return Status::InvalidArgument(
        "OnlineOptions: prior_estimate must be in [0,1]");
  }
  if (window_capacity == 0) {
    return Status::InvalidArgument(
        "OnlineOptions: window_capacity must be positive");
  }
  if (max_backoff_multiplier == 0) {
    return Status::InvalidArgument(
        "OnlineOptions: max_backoff_multiplier must be positive");
  }
  if (!(gate_factor >= 0.0) || !std::isfinite(gate_factor)) {
    return Status::InvalidArgument(
        "OnlineOptions: gate_factor must be finite and >= 0");
  }
  auto spec = EstimatorSpec::Parse(estimator);
  SEL_RETURN_IF_ERROR(spec.status());
  if (EstimatorRegistry::Global().Find(spec.value().name) == nullptr) {
    return EstimatorRegistry::Global().UnknownEstimatorError(
        spec.value().name);
  }
  return Status::OK();
}

Result<std::unique_ptr<OnlineEstimator>> OnlineEstimator::Create(
    int domain_dim, const OnlineOptions& options) {
  if (domain_dim < 1) {
    return Status::InvalidArgument(
        "OnlineEstimator: domain_dim must be >= 1");
  }
  SEL_RETURN_IF_ERROR(options.Validate());
  return std::make_unique<OnlineEstimator>(domain_dim, options);
}

OnlineEstimator::OnlineEstimator(int domain_dim,
                                 const OnlineOptions& options)
    : dim_(domain_dim), options_(options) {
  SEL_CHECK(domain_dim >= 1);
  last_error_ = options_.Validate();
  current_interval_ = options_.retrain_interval;
}

double OnlineEstimator::Estimate(const Query& query) const {
  SEL_CHECK(query.dim() == dim_);
  const std::shared_ptr<const SelectivityModel> state = LoadState();
  if (state == nullptr) return options_.prior_estimate;
  return state->Estimate(query);
}

Status OnlineEstimator::Feedback(const Query& query,
                                 double true_selectivity) {
  if (!last_error_.ok() && retrain_count_ == 0 &&
      failed_retrain_count_ == 0) {
    // Construction-time validation failure: surface it instead of
    // silently pooling feedback an invalid estimator spec can never
    // consume.
    return last_error_;
  }
  if (query.dim() != dim_) {
    return Status::InvalidArgument("OnlineEstimator: dimension mismatch");
  }
  {
    // A malformed query in the training window would poison every later
    // retrain; reject it at the door like the serving paths do.
    const Status st = ValidateQuery(query);
    if (!st.ok()) {
      SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
      return st;
    }
  }
  if (!(true_selectivity >= 0.0 && true_selectivity <= 1.0)) {
    return Status::InvalidArgument(
        "OnlineEstimator: selectivity must be in [0,1]");
  }
  window_.push_back(LabeledQuery{query, true_selectivity});
  while (window_.size() > options_.window_capacity) {
    window_.pop_front();
  }
  ++since_retrain_;
  if (options_.retrain_interval > 0 && since_retrain_ >= current_interval_) {
    // An automatic retrain that fails is a degraded state, not an error
    // to the caller: the feedback itself was absorbed and estimates keep
    // flowing from the previous model. RetrainNow() recorded the failure
    // in last_error() and backed the interval off.
    (void)RetrainNow();
  }
  return Status::OK();
}

Status OnlineEstimator::Retrain() {
  if (!last_error_.ok() && retrain_count_ == 0 &&
      failed_retrain_count_ == 0) {
    return last_error_;
  }
  if (window_.empty()) return Status::OK();
  return RetrainNow();
}

Status OnlineEstimator::RollbackLastGood() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (last_good_.size() < 2) {
      return Status::FailedPrecondition(
          "RollbackLastGood: no earlier snapshot in the ring");
    }
    last_good_.pop_back();
    state_ = last_good_.back();
  }
  SEL_METRIC_COUNTER_INC("online.rollbacks_total");
  return Status::OK();
}

Status OnlineEstimator::GateCandidate(const SelectivityModel& candidate,
                                      const Workload& holdout) const {
  if (SEL_FAULT_POINT("online.gate.holdout")) {
    return Status::FailedPrecondition(
        "candidate rejected (injected fault: online.gate.holdout)");
  }
  SEL_CHECK(!holdout.empty());
  const std::shared_ptr<const SelectivityModel> incumbent = LoadState();
  std::vector<double> cand_q;
  std::vector<double> inc_q;
  cand_q.reserve(holdout.size());
  inc_q.reserve(holdout.size());
  for (const auto& z : holdout) {
    const double est = candidate.Estimate(z.query);
    // !(in range) also rejects NaN — a degenerate model never publishes.
    if (!(est >= 0.0 && est <= 1.0)) {
      return Status::FailedPrecondition(
          "candidate rejected: non-finite or out-of-range estimate on the "
          "held-out slice");
    }
    cand_q.push_back(GateQError(est, z.selectivity));
    if (incumbent != nullptr) {
      inc_q.push_back(GateQError(incumbent->Estimate(z.query),
                                 z.selectivity));
    }
  }
  // First model: sane estimates are enough — there is no incumbent to
  // compare against (the prior is not a model).
  if (incumbent == nullptr) return Status::OK();
  const double cand_med = Median(std::move(cand_q));
  const double inc_med = Median(std::move(inc_q));
  if (cand_med > options_.gate_factor * std::max(inc_med, 1.0)) {
    return Status::FailedPrecondition(
        "candidate rejected: held-out median q-error " +
        std::to_string(cand_med) + " exceeds " +
        std::to_string(options_.gate_factor) + "x incumbent (" +
        std::to_string(inc_med) + ")");
  }
  return Status::OK();
}

void OnlineEstimator::Publish(
    std::shared_ptr<const SelectivityModel> next) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_ = next;
    last_good_.push_back(std::move(next));
    while (last_good_.size() > kRollbackRing) {
      last_good_.pop_front();
    }
  }
  SEL_METRIC_COUNTER_INC("online.plan_swaps_total");
}

Status OnlineEstimator::RetrainNow() {
  SEL_TRACE_SPAN("online.retrain");
  SEL_METRIC_SCOPED_LATENCY("online.retrain_us");
  RejectReason reason = RejectReason::kError;
  auto attempt = [&]() -> Status {
    if (SEL_FAULT_POINT("online.fail_retrain")) {
      return Status::Internal("injected fault: online.fail_retrain");
    }
    const Workload snapshot(window_.begin(), window_.end());
    // Reserve the most recent slice of the window as the gate's held-out
    // set; the candidate trains on the rest. Tiny windows train on
    // everything and publish ungated (a handful of held-out records
    // would gate on noise).
    const bool gated = options_.gate_factor > 0.0 &&
                       snapshot.size() >= kGateMinWindow;
    size_t holdout_n = 0;
    if (gated) {
      holdout_n = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(snapshot.size()) *
                                 kGateHoldoutFraction));
    }
    const Workload train(snapshot.begin(), snapshot.end() - holdout_n);
    const Workload holdout(snapshot.end() - holdout_n, snapshot.end());
    auto spec = EstimatorSpec::Parse(options_.estimator);
    SEL_RETURN_IF_ERROR(spec.status());
    // Vary the stochastic seed across rounds so repeated retrains do not
    // reuse identical bucket samples (still fully deterministic overall).
    spec.value().seed += retrain_count_ + 1;
    spec.value().seed_set = true;
    auto fresh = EstimatorRegistry::Build(spec.value(), dim_, train.size());
    SEL_RETURN_IF_ERROR(fresh.status());
    // Training, which ends by lowering the model to its plan, runs
    // under the retrain wall-clock budget. Expiry never aborts: the
    // solver chain degrades internally (best iterate, uniform floor) and
    // the post-train check below rejects the degraded candidate — the
    // incumbent keeps serving. A failed lowering fails the Train, so it
    // counts as a failed retrain.
    ScopedDeadline train_scope(TrainDeadlineFromEnv());
    SEL_RETURN_IF_ERROR(fresh.value()->Train(train));
    // The expensive lowering already happened inside Train, here on the
    // retrain thread; the publish below is a single pointer swap under
    // the narrow state lock, so readers never block on it.
    std::shared_ptr<const SelectivityModel> next = std::move(fresh).value();
    if (DeadlineExpired()) {
      reason = RejectReason::kDeadline;
      return Status::FailedPrecondition(
          "candidate rejected: retrain deadline expired; incumbent keeps "
          "serving");
    }
    if (gated) {
      const Status gate = GateCandidate(*next, holdout);
      if (!gate.ok()) {
        reason = RejectReason::kQuality;
        return gate;
      }
    }
    Publish(std::move(next));
    return Status::OK();
  };

  const Status st = attempt();
  since_retrain_ = 0;
  if (st.ok()) {
    ++retrain_count_;
    ++publish_accepted_;
    consecutive_failures_ = 0;
    current_interval_ = options_.retrain_interval;
    last_error_ = Status::OK();
    SEL_METRIC_COUNTER_INC("online.retrains_total");
    SEL_METRIC_COUNTER_INC("online.publish.accepted_total");
    SEL_METRIC_GAUGE_SET("online.publish.rejection_streak", 0);
    SEL_METRIC_GAUGE_SET("online.backoff_interval",
                         static_cast<int64_t>(current_interval_));
    return st;
  }
  // Exponential backoff: double the effective interval per consecutive
  // failure, capped at retrain_interval * max_backoff_multiplier, so a
  // persistently bad window does not pay a full retrain every
  // `retrain_interval` queries. A gate rejection backs off exactly like
  // a training failure — the window that produced a bad candidate will
  // likely produce another. The previous model keeps serving.
  ++failed_retrain_count_;
  ++consecutive_failures_;
  switch (reason) {
    case RejectReason::kDeadline:
      ++publish_rejected_deadline_;
      SEL_METRIC_COUNTER_INC("online.publish.rejected_deadline_total");
      break;
    case RejectReason::kQuality:
      ++publish_rejected_quality_;
      SEL_METRIC_COUNTER_INC("online.publish.rejected_quality_total");
      break;
    case RejectReason::kNone:
    case RejectReason::kError:
      break;
  }
  if (options_.retrain_interval > 0) {
    const size_t cap =
        options_.retrain_interval * options_.max_backoff_multiplier;
    size_t interval = options_.retrain_interval;
    for (size_t i = 0; i < consecutive_failures_ && interval < cap; ++i) {
      interval = std::min(cap, interval * 2);
    }
    current_interval_ = interval;
  }
  last_error_ = st;
  SEL_METRIC_COUNTER_INC("online.retrain_failures_total");
  SEL_METRIC_GAUGE_SET("online.publish.rejection_streak",
                       static_cast<int64_t>(consecutive_failures_));
  SEL_METRIC_GAUGE_SET("online.backoff_interval",
                       static_cast<int64_t>(current_interval_));
  return st;
}

}  // namespace sel
