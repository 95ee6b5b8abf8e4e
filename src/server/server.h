// Embeddable networked estimator service (DESIGN.md §14).
//
// EstimatorServer hosts one OnlineEstimator behind the length-prefixed
// binary protocol of server/proto.h: an acceptor thread hands each TCP
// connection to its own reader thread (connection I/O is blocking and
// cheap), while all estimation work is funneled through a bounded
// pending-request queue into a micro-batcher that coalesces requests
// arriving within `batch_window_us` into ONE CompiledPlan::EstimateMany
// call — the batch kernel then fans out over the shared ThreadPool, so
// compute parallelism lives where it always has. The window is an upper
// bound: it closes early once every open connection has its request in
// the batch, since no further request can arrive. Admission control is
// load-shedding, not queueing: when the pending queue is full, the
// request is answered immediately with a RESOURCE_EXHAUSTED frame and
// dropped, so overload degrades throughput but never memory.
//
// Serving stays uninterrupted across retrains: every batch snapshots
// the estimator's published ServingState (constant-time shared_ptr
// copy), so Feedback-driven republication underneath never tears or
// stalls an estimate. Feedback frames are serialized through one mutex
// (OnlineEstimator's window mutation is single-writer by contract);
// estimates never take that lock.
//
// Shutdown() drains gracefully: stop accepting, EOF the open
// connections, answer every admitted request, then join all threads.
// Per-request deadline budgets arm a ScopedDeadline around batch
// execution (`request_deadline_ms`, default from
// SEL_SERVE_REQUEST_DEADLINE_MS): a request whose budget expired before
// its batch ran is answered DEADLINE_EXCEEDED instead of computed.
//
// Instrumentation: server.requests_total / server.batch_size /
// server.queue_depth / server.overload_total / server.request_us /
// server.stage.linger_us / server.connections plus the
// net.accept/net.read/net.write fault sites
// (a fault-injected connection failure closes that connection, never
// the server).
#ifndef SEL_SERVER_SERVER_H_
#define SEL_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/online.h"
#include "server/proto.h"

namespace sel {

/// The service lives on loopback/intranet TCP; there is no TLS or auth —
/// the trust boundary is the process group, as for any intra-cluster
/// sidecar.
class EstimatorServer {
 public:
  struct Options {
    /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
    /// port (query the actual one via port()).
    int port = 0;
    /// Micro-batch coalescing window: after the first pending request is
    /// picked up, the batcher waits up to this long for more before
    /// dispatching one EstimateMany over everything collected. It is an
    /// upper bound: the batch dispatches early once every open
    /// connection has its request in it. 0 serves strictly
    /// request-at-a-time.
    long batch_window_us = 100;
    /// Bound of the pending-request queue; an admission attempt beyond
    /// it is answered RESOURCE_EXHAUSTED immediately (load shedding).
    size_t max_pending = 256;
    /// Per-request wall budget, armed as a ScopedDeadline around batch
    /// execution; 0 = unarmed. A request already past its budget when
    /// its batch runs is answered DEADLINE_EXCEEDED.
    long request_deadline_ms = 0;
    /// Queries folded into one EstimateMany dispatch at most.
    size_t max_batch_queries = 4096;
    /// Accepted connections beyond this are answered RESOURCE_EXHAUSTED
    /// and closed.
    size_t max_connections = 256;

    /// Reads SEL_SERVE_PORT / SEL_SERVE_BATCH_WINDOW_US /
    /// SEL_SERVE_MAX_PENDING / SEL_SERVE_REQUEST_DEADLINE_MS over the
    /// defaults above.
    static Options FromEnv();

    Status Validate() const;
  };

  /// Binds, listens, and starts the acceptor + batcher threads.
  /// `estimator` must outlive the server and is shared: Feedback frames
  /// mutate it (serialized by the server), estimates snapshot it.
  static Result<std::unique_ptr<EstimatorServer>> Start(
      OnlineEstimator* estimator, const Options& options);

  /// Calls Shutdown().
  ~EstimatorServer();

  EstimatorServer(const EstimatorServer&) = delete;
  EstimatorServer& operator=(const EstimatorServer&) = delete;

  /// The port actually bound (resolves port 0).
  int port() const { return port_; }

  /// True until Shutdown() begins.
  bool running() const { return !stopping_.load(std::memory_order_acquire); }

  /// Graceful drain: stop accepting, EOF open connections, answer every
  /// admitted request, join all threads. Idempotent.
  void Shutdown();

  /// Open connections right now (introspection for tests).
  size_t active_connections() const;

 private:
  /// What the batcher resolves an admitted request to. Carries a wire
  /// status (not a library Status) so deadline expiry maps onto its own
  /// DEADLINE_EXCEEDED frame.
  struct BatchOutcome {
    WireStatus status = WireStatus::kOk;
    std::string message;
    std::vector<double> values;
  };

  /// One admitted Estimate/EstimateBatch request waiting for a batch.
  struct PendingRequest {
    std::vector<Query> queries;
    Deadline deadline;                  ///< armed iff request_deadline_ms > 0
    std::chrono::steady_clock::time_point enqueued_at;
    std::promise<BatchOutcome> promise;
  };

  /// One live connection and its reader thread.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  EstimatorServer(OnlineEstimator* estimator, const Options& options);

  Status Listen();
  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  void BatchLoop();

  /// Handles one decoded request frame on `fd`. Returns false when the
  /// connection should close (write failure).
  bool HandleFrame(int fd, const Frame& frame);
  bool HandleEstimate(int fd, const Frame& frame, bool batch);
  bool HandleFeedback(int fd, const Frame& frame);
  bool HandleStats(int fd);

  /// Admits a decoded query set into the pending queue, or sheds load.
  /// Returns the response frame to write.
  Frame AdmitAndWait(std::vector<Query> queries, bool batch);

  /// Runs one collected batch: snapshot, (deadline-scoped) estimate,
  /// fulfill promises.
  void ExecuteBatch(std::vector<std::unique_ptr<PendingRequest>> batch);

  /// Reaps finished connection threads (joins those marked done).
  void ReapConnections();

  OnlineEstimator* estimator_;
  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;  ///< serializes Shutdown() callers (joins)
  std::thread acceptor_;
  std::thread batcher_;

  std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<PendingRequest>> pending_;
  /// Registered connections whose reader thread has not finished; the
  /// batcher stops lingering once a batch holds this many requests.
  size_t open_readers_ = 0;

  /// Serializes Feedback (and the retrains it triggers); estimates
  /// never take it.
  std::mutex feedback_mu_;
};

}  // namespace sel

#endif  // SEL_SERVER_SERVER_H_
