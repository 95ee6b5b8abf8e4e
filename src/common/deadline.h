// Cooperative deadlines and cancellation for the long-running loops.
//
// The paper's guarantees are sample-complexity bounds, not wall-clock
// bounds: a FISTA solve on a pathological window, an LP pivot storm, or
// a huge QMC volume pass can all run far past a serving deadline. The
// production answer is cooperative cancellation — every long loop polls
// a cheap "should I stop?" check and, on expiry, returns its best
// feasible iterate so far instead of aborting. A deadline is a fallback
// trigger (SolverTermination::kDeadlineExceeded feeds the
// SolveBucketWeights degradation chain of DESIGN.md §9), never an error.
//
// Discipline mirrors SEL_FAULT_POINT and the metrics macros: when no
// deadline or cancel token is armed anywhere in the process, the check
// compiles to ONE relaxed atomic load (`tools/check_bench.py` guards
// the hot loops). Scopes nest: `DeadlineExpired()` honours the
// tightest armed deadline and any cancelled token on the current
// thread's scope chain. `ParallelFor` propagates the submitting thread's
// chain onto pool helpers, so loop bodies running on workers observe the
// caller's budget.
//
// Knobs: SEL_SOLVE_DEADLINE_MS arms a per-SolveBucketWeights budget,
// SEL_TRAIN_DEADLINE_MS a per-retrain budget (OnlineEstimator / selcli
// train). Both parse once per process; 0/unset means unarmed.
#ifndef SEL_COMMON_DEADLINE_H_
#define SEL_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <memory>

namespace sel {

/// A monotonic-clock budget. Value type: copy freely. Default (and
/// Infinite()) is unarmed — it never expires and costs nothing to scope.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// The unarmed deadline: never expires.
  static Deadline Infinite() { return Deadline(); }

  /// Armed deadline `ms` milliseconds from now. ms <= 0 is armed and
  /// already expired (useful for short-circuit tests).
  static Deadline AfterMillis(long ms) {
    return At(Clock::now() + std::chrono::milliseconds(ms));
  }

  /// Armed deadline at an absolute monotonic time point.
  static Deadline At(Clock::time_point at) {
    Deadline d;
    d.at_ = at;
    d.armed_ = true;
    return d;
  }

  bool armed() const { return armed_; }

  /// True iff armed and the monotonic clock has reached the deadline.
  /// Monotone: once true, true forever (steady_clock never goes back).
  bool expired() const { return armed_ && Clock::now() >= at_; }

 private:
  Clock::time_point at_{};
  bool armed_ = false;
};

/// A shared cancellation flag. Copies share one flag: Cancel() from any
/// thread is observed by every holder (relaxed atomics — cancellation
/// carries no data, only "stop soon"). None() is inert and free.
class CancelToken {
 public:
  /// An armed token owning a fresh shared flag.
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  /// The inert token: never cancelled, Cancel() is a no-op.
  static CancelToken None() { return CancelToken(inert_tag{}); }

  void Cancel() const {
    if (state_) state_->store(true, std::memory_order_relaxed);
  }
  bool cancelled() const {
    return state_ && state_->load(std::memory_order_relaxed);
  }
  bool armed() const { return state_ != nullptr; }

 private:
  struct inert_tag {};
  explicit CancelToken(inert_tag) {}
  std::shared_ptr<std::atomic<bool>> state_;
};

namespace deadline_internal {

/// One scope on a thread's deadline chain. Lives on the installing
/// frame's stack; pool helpers borrow the submitting thread's chain by
/// pointer (safe: ParallelFor joins every helper before unwinding).
struct Frame {
  Deadline deadline;
  CancelToken token;
  const Frame* parent = nullptr;
};

/// Count of armed scopes process-wide; the fast-path gate. Zero means
/// DeadlineExpired() is one relaxed load and nothing else.
extern std::atomic<int> g_armed_scopes;

/// Walks the current thread's chain: any expired deadline or cancelled
/// token on it makes the thread's work expired.
bool ExpiredSlow();

/// The current thread's innermost frame (nullptr when none). Capture
/// before submitting pool work, install on the helper with
/// ScopedDeadlineInherit.
const Frame* CurrentFrame();

}  // namespace deadline_internal

/// The cooperative check the long-running loops call each iteration.
/// True iff some deadline on this thread's scope chain has expired or
/// some token on it was cancelled. When nothing is armed process-wide
/// this is one relaxed atomic load (same budget as SEL_FAULT_POINT).
inline bool DeadlineExpired() {
  return deadline_internal::g_armed_scopes.load(std::memory_order_relaxed) !=
             0 &&
         deadline_internal::ExpiredSlow();
}

/// RAII deadline/cancellation scope for the current thread. An unarmed
/// scope (Infinite deadline, None token) installs nothing and costs
/// nothing — callers can scope unconditionally.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(Deadline deadline,
                          CancelToken token = CancelToken::None());
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  deadline_internal::Frame frame_;
  bool installed_ = false;
};

/// Installs another thread's captured frame chain on this thread (used
/// by ParallelFor helpers so task bodies see the submitting thread's
/// deadline). Does not bump the armed count — the owning scope did, and
/// it outlives every helper by the ParallelFor join contract.
class ScopedDeadlineInherit {
 public:
  explicit ScopedDeadlineInherit(const deadline_internal::Frame* frame);
  ~ScopedDeadlineInherit();

  ScopedDeadlineInherit(const ScopedDeadlineInherit&) = delete;
  ScopedDeadlineInherit& operator=(const ScopedDeadlineInherit&) = delete;

 private:
  const deadline_internal::Frame* saved_;
  bool installed_ = false;
};

/// Fresh per-call deadline from SEL_SOLVE_DEADLINE_MS (parsed once per
/// process; 0/unset/negative = unarmed). Scoped by SolveBucketWeights
/// around the whole degradation chain.
Deadline SolveDeadlineFromEnv();

/// Fresh per-call deadline from SEL_TRAIN_DEADLINE_MS — the retrain
/// orchestration budget (OnlineEstimator::RetrainNow, selcli train).
Deadline TrainDeadlineFromEnv();

}  // namespace sel

#endif  // SEL_COMMON_DEADLINE_H_
