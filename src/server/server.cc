#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/env.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "serve/compiled_plan.h"

namespace sel {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                   start)
      .count();
}

}  // namespace

EstimatorServer::Options EstimatorServer::Options::FromEnv() {
  Options o;
  o.port = static_cast<int>(GetEnvInt("SEL_SERVE_PORT", o.port));
  o.batch_window_us =
      GetEnvInt("SEL_SERVE_BATCH_WINDOW_US", o.batch_window_us);
  o.max_pending = static_cast<size_t>(std::max(
      1L, GetEnvInt("SEL_SERVE_MAX_PENDING",
                    static_cast<long>(o.max_pending))));
  o.request_deadline_ms =
      GetEnvInt("SEL_SERVE_REQUEST_DEADLINE_MS", o.request_deadline_ms);
  return o;
}

Status EstimatorServer::Options::Validate() const {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("server port must lie in [0, 65535]");
  }
  if (batch_window_us < 0) {
    return Status::InvalidArgument("batch_window_us must be >= 0");
  }
  if (request_deadline_ms < 0) {
    return Status::InvalidArgument("request_deadline_ms must be >= 0");
  }
  if (max_pending == 0) {
    return Status::InvalidArgument("max_pending must be positive");
  }
  if (max_batch_queries == 0) {
    return Status::InvalidArgument("max_batch_queries must be positive");
  }
  if (max_connections == 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  return Status::OK();
}

EstimatorServer::EstimatorServer(OnlineEstimator* estimator,
                                 const Options& options)
    : estimator_(estimator), options_(options) {}

Result<std::unique_ptr<EstimatorServer>> EstimatorServer::Start(
    OnlineEstimator* estimator, const Options& options) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("EstimatorServer needs an estimator");
  }
  SEL_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<EstimatorServer> server(
      new EstimatorServer(estimator, options));
  SEL_RETURN_IF_ERROR(server->Listen());
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  server->batcher_ = std::thread([s = server.get()] { s->BatchLoop(); });
  return server;
}

EstimatorServer::~EstimatorServer() { Shutdown(); }

Status EstimatorServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st = Status::IOError(
        std::string("bind(127.0.0.1:") + std::to_string(options_.port) +
        ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status st = Status::IOError(std::string("listen() failed: ") +
                                      std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    const Status st = Status::IOError(
        std::string("getsockname() failed: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

size_t EstimatorServer::active_connections() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return open_readers_;
}

void EstimatorServer::ReapConnections() {
  // Holding conn_mu_. Finished handlers marked themselves done; joining
  // them here (never from their own thread) keeps close-after-join the
  // only fd release point, so a kernel-reused fd can never be shut down
  // twice.
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void EstimatorServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      // The listener died underneath us (or Shutdown raced): stop.
      return;
    }
    if (SEL_FAULT_POINT("net.accept")) {
      // An injected accept failure costs one connection, never the
      // acceptor.
      SEL_METRIC_COUNTER_INC("server.net_errors_total");
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapConnections();
    if (active_connections() >= options_.max_connections) {
      SEL_METRIC_COUNTER_INC("server.overload_total");
      (void)WriteFrame(fd, MakeErrorFrame(WireStatus::kResourceExhausted,
                                          "too many connections"));
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    {
      // Counted before its reader starts, so the batcher never sees a
      // request from a reader it does not count.
      std::lock_guard<std::mutex> queue_lock(queue_mu_);
      ++open_readers_;
      SEL_METRIC_GAUGE_SET("server.connections",
                           static_cast<int64_t>(open_readers_));
    }
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

void EstimatorServer::ConnectionLoop(Connection* conn) {
  for (;;) {
    Frame frame;
    const Status st = ReadFrame(conn->fd, &frame);
    if (!st.ok()) {
      if (st.code() == StatusCode::kInvalidArgument) {
        // Malformed header: answer once, then close — the byte stream
        // has lost frame alignment.
        (void)WriteFrame(conn->fd,
                         MakeErrorFrame(WireStatus::kInvalidArgument,
                                        st.message()));
      } else if (st.code() != StatusCode::kNotFound) {
        // Torn read or socket error; NotFound is the clean close.
        SEL_METRIC_COUNTER_INC("server.net_errors_total");
      }
      break;
    }
    if (!HandleFrame(conn->fd, frame)) break;
  }
  // FIN the peer now — it must not wait for the next accept to learn
  // this connection is over. Only ::shutdown, never ::close: the fd
  // number is released after join (ReapConnections / Shutdown()), which
  // keeps kernel fd reuse race-free.
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    --open_readers_;
    SEL_METRIC_GAUGE_SET("server.connections",
                         static_cast<int64_t>(open_readers_));
  }
  // A batch still lingering for this reader can dispatch now.
  queue_cv_.notify_all();
  conn->done.store(true, std::memory_order_release);
}

bool EstimatorServer::HandleFrame(int fd, const Frame& frame) {
  SEL_METRIC_COUNTER_INC("server.requests_total");
  switch (frame.type) {
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.payload = frame.payload;
      return WriteFrame(fd, pong).ok();
    }
    case FrameType::kEstimate:
      return HandleEstimate(fd, frame, /*batch=*/false);
    case FrameType::kEstimateBatch:
      return HandleEstimate(fd, frame, /*batch=*/true);
    case FrameType::kFeedback:
      return HandleFeedback(fd, frame);
    case FrameType::kStats:
      return HandleStats(fd);
    default:
      // A response-type frame from a client is a protocol violation.
      SEL_METRIC_COUNTER_INC("server.protocol_errors_total");
      return WriteFrame(fd, MakeErrorFrame(
                                WireStatus::kInvalidArgument,
                                std::string("unexpected frame type: ") +
                                    FrameTypeName(frame.type)))
          .ok();
  }
}

bool EstimatorServer::HandleEstimate(int fd, const Frame& frame,
                                     bool batch) {
  WireReader reader(frame.payload);
  uint32_t count = 1;
  if (batch) {
    const Status st = reader.ReadU32(&count);
    if (!st.ok() || count == 0 || count > kMaxBatchQueries) {
      SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
      return WriteFrame(fd, MakeErrorFrame(WireStatus::kInvalidArgument,
                                           "bad batch count"))
          .ok();
    }
  }
  std::vector<Query> queries;
  queries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Result<Query> q = DecodeQuery(&reader);
    if (!q.ok()) {
      SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
      return WriteFrame(fd,
                        MakeErrorFrame(WireStatus::kInvalidArgument,
                                       q.status().message()))
          .ok();
    }
    if (q.value().dim() != estimator_->dim()) {
      SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
      return WriteFrame(
                 fd, MakeErrorFrame(
                         WireStatus::kInvalidArgument,
                         "query dimension " +
                             std::to_string(q.value().dim()) +
                             " != served model dimension " +
                             std::to_string(estimator_->dim())))
          .ok();
    }
    queries.push_back(std::move(q).value());
  }
  if (!reader.AtEnd()) {
    SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
    return WriteFrame(fd, MakeErrorFrame(WireStatus::kInvalidArgument,
                                         "trailing bytes after query"))
        .ok();
  }
  return WriteFrame(fd, AdmitAndWait(std::move(queries), batch)).ok();
}

Frame EstimatorServer::AdmitAndWait(std::vector<Query> queries,
                                    bool batch) {
  auto request = std::make_unique<PendingRequest>();
  request->queries = std::move(queries);
  request->deadline = options_.request_deadline_ms > 0
                          ? Deadline::AfterMillis(options_.request_deadline_ms)
                          : Deadline::Infinite();
  request->enqueued_at = SteadyClock::now();
  std::future<BatchOutcome> future = request->promise.get_future();
  const auto enqueued_at = request->enqueued_at;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      return MakeErrorFrame(WireStatus::kUnavailable, "server draining");
    }
    if (pending_.size() >= options_.max_pending) {
      // Load shedding, not queueing: the queue never grows past its
      // bound, the caller hears RESOURCE_EXHAUSTED right away.
      SEL_METRIC_COUNTER_INC("server.overload_total");
      return MakeErrorFrame(WireStatus::kResourceExhausted,
                            "pending request queue is full");
    }
    pending_.push_back(std::move(request));
    SEL_METRIC_GAUGE_SET("server.queue_depth",
                         static_cast<int64_t>(pending_.size()));
  }
  queue_cv_.notify_all();
  // Every admitted request is fulfilled — the batcher drains the queue
  // before exiting — so this wait always terminates.
  BatchOutcome outcome = future.get();
  SEL_METRIC_HIST_RECORD("server.request_us", MicrosSince(enqueued_at));
  if (outcome.status != WireStatus::kOk) {
    return MakeErrorFrame(outcome.status, outcome.message);
  }
  Frame response;
  response.type = batch ? FrameType::kEstimateBatchResponse
                        : FrameType::kEstimateResponse;
  if (batch) {
    PutU32(&response.payload,
           static_cast<uint32_t>(outcome.values.size()));
  }
  for (double v : outcome.values) PutF64(&response.payload, v);
  return response;
}

bool EstimatorServer::HandleFeedback(int fd, const Frame& frame) {
  WireReader reader(frame.payload);
  Result<Query> q = DecodeQuery(&reader);
  double truth = 0.0;
  Status st = q.status();
  if (st.ok()) st = reader.ReadF64(&truth);
  if (st.ok() && !reader.AtEnd()) {
    st = Status::InvalidArgument("trailing bytes after feedback record");
  }
  if (st.ok()) {
    // OnlineEstimator's window mutation (and any retrain it triggers) is
    // single-writer; concurrent feedback frames serialize here while
    // estimates keep flowing lock-free from the published snapshot.
    std::lock_guard<std::mutex> lock(feedback_mu_);
    st = estimator_->Feedback(q.value(), truth);
  }
  Frame response;
  response.type = FrameType::kFeedbackResponse;
  response.status = WireStatusFromCode(st.code());
  if (!st.ok()) {
    SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
    response.payload = st.message();
  }
  return WriteFrame(fd, response).ok();
}

bool EstimatorServer::HandleStats(int fd) {
  Frame response;
  response.type = FrameType::kStatsResponse;
  response.payload = MetricsRegistry::Global().Snapshot().ToJson();
  return WriteFrame(fd, response).ok();
}

void EstimatorServer::BatchLoop() {
  for (;;) {
    std::vector<std::unique_ptr<PendingRequest>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) {
        // stopping_ and drained: every admitted request was answered.
        return;
      }
      size_t total = 0;
      bool full = false;
      auto take_pending = [&] {
        while (!pending_.empty()) {
          const size_t q = pending_.front()->queries.size();
          if (!batch.empty() && total + q > options_.max_batch_queries) {
            full = true;
            return;
          }
          total += q;
          batch.push_back(std::move(pending_.front()));
          pending_.pop_front();
        }
      };
      take_pending();
      // Micro-batching: linger up to the window for more arrivals, so
      // concurrent clients coalesce into one EstimateMany dispatch.
      const auto linger_start = SteadyClock::now();
      const auto window_end =
          linger_start + std::chrono::microseconds(options_.batch_window_us);
      // A reader has at most one request in flight: it blocks in
      // AdmitAndWait until the batch holding that request answers. So
      // every request in `batch` comes from a distinct open reader, and
      // once the batch holds one per open reader no further request can
      // arrive before dispatch; lingering on would only add latency.
      while (!full && options_.batch_window_us > 0 &&
             batch.size() < open_readers_ &&
             !stopping_.load(std::memory_order_acquire)) {
        if (queue_cv_.wait_until(lock, window_end) ==
            std::cv_status::timeout) {
          take_pending();
          break;
        }
        take_pending();
      }
      SEL_METRIC_GAUGE_SET("server.queue_depth",
                           static_cast<int64_t>(pending_.size()));
      SEL_METRIC_HIST_RECORD("server.stage.linger_us",
                             MicrosSince(linger_start));
    }
    ExecuteBatch(std::move(batch));
  }
}

void EstimatorServer::ExecuteBatch(
    std::vector<std::unique_ptr<PendingRequest>> batch) {
  if (batch.empty()) return;
  SEL_TRACE_SPAN("server.batch");
  // A request whose budget lapsed while queued is answered
  // DEADLINE_EXCEEDED instead of spending compute on an answer nobody
  // is waiting for.
  std::vector<PendingRequest*> live;
  live.reserve(batch.size());
  for (auto& request : batch) {
    if (request->deadline.expired()) {
      SEL_METRIC_COUNTER_INC("server.deadline_expired_total");
      BatchOutcome outcome;
      outcome.status = WireStatus::kDeadlineExceeded;
      outcome.message = "request deadline expired before execution";
      request->promise.set_value(std::move(outcome));
    } else {
      live.push_back(request.get());
    }
  }
  if (live.empty()) return;
  std::vector<Query> flat;
  size_t total = 0;
  for (const PendingRequest* r : live) total += r->queries.size();
  flat.reserve(total);
  for (const PendingRequest* r : live) {
    flat.insert(flat.end(), r->queries.begin(), r->queries.end());
  }
  SEL_METRIC_HIST_RECORD("server.batch_size",
                         static_cast<double>(total));
  std::vector<double> out(total, 0.0);
  {
    // FIFO admission makes the first live request's budget the tightest;
    // arming it over the whole dispatch keeps the batch cooperative with
    // the deadline machinery (QMC volume loops poll it).
    ScopedDeadline scope(live.front()->deadline);
    const std::shared_ptr<const CompiledPlan> plan =
        estimator_->serving_plan();
    if (plan != nullptr) {
      // THE serving fast path: one batch kernel call over the coalesced
      // queries; results are bit-identical to an in-process
      // EstimateMany on the same plan (per-query evaluation is
      // independent of batch composition).
      plan->EstimateMany(flat.data(), total, out.data());
    } else {
      for (size_t i = 0; i < total; ++i) {
        out[i] = estimator_->Estimate(flat[i]);
      }
    }
  }
  size_t offset = 0;
  for (PendingRequest* r : live) {
    BatchOutcome outcome;
    outcome.values.assign(out.begin() + static_cast<long>(offset),
                          out.begin() +
                              static_cast<long>(offset + r->queries.size()));
    offset += r->queries.size();
    r->promise.set_value(std::move(outcome));
  }
}

void EstimatorServer::Shutdown() {
  // Serializing callers makes Shutdown idempotent: a second caller
  // blocks until the first finished, then finds everything joined.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  stopping_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (listen_fd_ >= 0) {
    // Wakes the blocking accept(); the acceptor sees stopping_ and
    // exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    // EOF every open connection: readers finish the frame (and request)
    // they are on, then see a clean close — the in-flight drain.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& conn : connections_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    connections_.clear();
  }
  // Connections are gone, so no new admissions; the batcher exits once
  // the queue is empty — after answering everything already admitted.
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  SEL_METRIC_GAUGE_SET("server.queue_depth", 0);
}

}  // namespace sel
