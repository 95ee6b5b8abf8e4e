// Tests for cooperative deadlines and cancellation: scope chaining,
// cross-thread token sharing, pool propagation, and the solver contract
// that an expired budget yields a feasible best-iterate, never an abort.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/thread_pool.h"
#include "solver/lp.h"
#include "solver/nnls.h"
#include "solver/qp.h"

namespace sel {
namespace {

double Sum(const Vector& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void ExpectOnSimplex(const Vector& w) {
  for (const double x : w) {
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GE(x, 0.0);
  }
  EXPECT_NEAR(Sum(w), 1.0, 1e-9);
}

/// A small but non-trivial least-squares system (n x m, deterministic).
SparseMatrix TestMatrix(int n, int m) {
  std::vector<Triplet> t;
  uint64_t state = 12345;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      t.push_back(
          {i, j, static_cast<double>((state >> 33) & 0xFFFF) / 65535.0});
    }
  }
  return SparseMatrix::FromTriplets(n, m, std::move(t));
}

TEST(DeadlineTest, ValueSemanticsAndMonotoneExpiry) {
  EXPECT_FALSE(Deadline::Infinite().armed());
  EXPECT_FALSE(Deadline::Infinite().expired());
  EXPECT_FALSE(Deadline().armed());

  const Deadline past = Deadline::AfterMillis(0);
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.expired());

  const Deadline future = Deadline::AfterMillis(60000);
  EXPECT_TRUE(future.armed());
  EXPECT_FALSE(future.expired());

  // Monotone: once expired, expired on every later check.
  const Deadline soon = Deadline::AfterMillis(1);
  while (!soon.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(soon.expired());
}

TEST(DeadlineTest, UnarmedProcessNeverExpires) {
  EXPECT_FALSE(DeadlineExpired());
  // An unarmed scope installs no frame at all: the fast path stays on
  // the single relaxed load and the chain stays empty.
  {
    ScopedDeadline scope(Deadline::Infinite());
    EXPECT_EQ(deadline_internal::CurrentFrame(), nullptr);
    EXPECT_FALSE(DeadlineExpired());
  }
  EXPECT_FALSE(DeadlineExpired());
}

TEST(DeadlineTest, ScopedDeadlineInstallsAndUnwinds) {
  EXPECT_FALSE(DeadlineExpired());
  {
    ScopedDeadline scope(Deadline::AfterMillis(0));
    EXPECT_TRUE(DeadlineExpired());
  }
  EXPECT_FALSE(DeadlineExpired());
}

TEST(DeadlineTest, NestedScopesHonourTightestBudget) {
  ScopedDeadline outer(Deadline::AfterMillis(60000));
  EXPECT_FALSE(DeadlineExpired());
  {
    ScopedDeadline inner(Deadline::AfterMillis(0));
    EXPECT_TRUE(DeadlineExpired());
  }
  // Unwinding the inner scope un-expires the thread: only the generous
  // outer budget remains.
  EXPECT_FALSE(DeadlineExpired());
}

TEST(DeadlineTest, CancelTokenSharedAcrossThreads) {
  CancelToken token;
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(token.cancelled());

  // Two workers scope the same token on their own threads; a Cancel from
  // the main thread must stop both.
  std::atomic<int> observed{0};
  auto worker = [&token, &observed] {
    ScopedDeadline scope(Deadline::Infinite(), token);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!DeadlineExpired() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (DeadlineExpired()) observed.fetch_add(1);
  };
  std::thread t1(worker), t2(worker);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  token.Cancel();
  t1.join();
  t2.join();
  EXPECT_EQ(observed.load(), 2);
  EXPECT_TRUE(token.cancelled());
}

TEST(DeadlineTest, CancelTokenCopiesShareOneFlag) {
  CancelToken a;
  CancelToken b = a;
  a.Cancel();
  EXPECT_TRUE(b.cancelled());
}

TEST(DeadlineTest, NoneTokenIsInert) {
  CancelToken none = CancelToken::None();
  EXPECT_FALSE(none.armed());
  none.Cancel();  // no-op, must not crash
  EXPECT_FALSE(none.cancelled());
  {
    ScopedDeadline scope(Deadline::Infinite(), none);
    EXPECT_FALSE(DeadlineExpired());
  }
}

TEST(DeadlineTest, ExpiredBudgetShortCircuitsFistaBeforeFirstIteration) {
  const SparseMatrix a = TestMatrix(20, 8);
  Vector s(20, 0.3);
  ScopedDeadline scope(Deadline::AfterMillis(0));
  auto result = SolveSimplexLeastSquares(a, s);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().iterations, 0);
  EXPECT_FALSE(result.value().converged);
  EXPECT_EQ(result.value().termination,
            SolverTermination::kDeadlineExceeded);
  // The short-circuit answer is the uniform simplex point, not garbage.
  ExpectOnSimplex(result.value().w);
  for (const double x : result.value().w) EXPECT_DOUBLE_EQ(x, 1.0 / 8);
}

TEST(DeadlineTest, ExpiredBudgetShortCircuitsNnlsFeasibly) {
  const DenseMatrix a = TestMatrix(16, 6).ToDense();
  Vector b(16, 0.5);
  ScopedDeadline scope(Deadline::AfterMillis(0));
  auto result = SolveNnls(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().iterations, 0);
  EXPECT_FALSE(result.value().converged);
  EXPECT_EQ(result.value().termination,
            SolverTermination::kDeadlineExceeded);
  for (const double x : result.value().x) EXPECT_GE(x, 0.0);
}

TEST(DeadlineTest, ExpiredBudgetFailsChebyshevLpAsNotConverged) {
  const DenseMatrix a = TestMatrix(12, 5).ToDense();
  Vector s(12, 0.4);
  ScopedDeadline scope(Deadline::AfterMillis(0));
  auto result = SolveSimplexChebyshev(a, s);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotConverged);
}

TEST(DeadlineTest, BestIterateStaysOnSimplexUnderTinyBudget) {
  // A budget that may expire anywhere mid-solve: whatever iterate comes
  // back must still be a valid simplex point (the chain's invariant).
  const SparseMatrix a = TestMatrix(120, 60);
  Vector s(120);
  for (int i = 0; i < 120; ++i) s[i] = 0.5 * (1.0 + std::sin(i * 0.7));
  SimplexLsqOptions options;
  options.max_iterations = 200000;
  options.tolerance = 0.0;  // never stop on improvement
  ScopedDeadline scope(Deadline::AfterMillis(1));
  auto result = SolveSimplexLeastSquares(a, s, options);
  ASSERT_TRUE(result.ok());
  ExpectOnSimplex(result.value().w);
  if (!result.value().converged) {
    EXPECT_EQ(result.value().termination,
              SolverTermination::kDeadlineExceeded);
  }
}

TEST(DeadlineTest, ParallelForHelpersInheritTheSubmittersDeadline) {
  ThreadPool pool(4);
  ScopedPoolOverride use_pool(&pool);
  ScopedDeadline scope(Deadline::AfterMillis(0));
  constexpr int64_t kItems = 256;
  std::atomic<int64_t> expired_seen{0};
  ParallelFor(0, kItems, 1, [&](int64_t) {
    if (DeadlineExpired()) expired_seen.fetch_add(1);
  });
  // Every body — whichever thread ran it — observed the caller's budget.
  EXPECT_EQ(expired_seen.load(), kItems);
}

TEST(DeadlineTest, ParallelForUnarmedCallerLeavesHelpersUnarmed) {
  ThreadPool pool(4);
  ScopedPoolOverride use_pool(&pool);
  std::atomic<int64_t> expired_seen{0};
  ParallelFor(0, 64, 1, [&](int64_t) {
    if (DeadlineExpired()) expired_seen.fetch_add(1);
  });
  EXPECT_EQ(expired_seen.load(), 0);
}

}  // namespace
}  // namespace sel
